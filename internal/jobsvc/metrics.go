package jobsvc

import (
	"fmt"
	"sort"

	"repro/internal/metrics"
)

// RegisterMetrics exposes the service's per-tenant health on reg, read off
// the live job table at scrape time:
//
//	sfserve_queue_depth{tenant="..."}      gauge: queued jobs per tenant
//	sfserve_jobs_running{tenant="..."}     gauge: running jobs per tenant
//	sfserve_jobs_total                     counter: jobs known to the service
//	sfserve_points_completed{tenant="..."} counter: points checkpointed this process
//
// The two counters only grow: jobs are never removed from the table, and
// the per-tenant point counts only add.
func (s *Service) RegisterMetrics(reg *metrics.Registry) {
	reg.Register("sfserve_queue_depth",
		"Queued jobs per tenant.", "gauge",
		func() []metrics.Sample { return s.tenantStateSamples("sfserve_queue_depth", StateQueued) })
	reg.Register("sfserve_jobs_running",
		"Running jobs per tenant.", "gauge",
		func() []metrics.Sample { return s.tenantStateSamples("sfserve_jobs_running", StateRunning) })
	reg.Register("sfserve_jobs_total",
		"Jobs known to the service in any state.", "counter",
		func() []metrics.Sample {
			s.mu.Lock()
			n := len(s.jobs)
			s.mu.Unlock()
			return []metrics.Sample{{Name: "sfserve_jobs_total", Value: float64(n)}}
		})
	reg.Register("sfserve_points_completed",
		"Sweep points checkpointed per tenant since this process started.", "counter",
		func() []metrics.Sample {
			s.mu.Lock()
			out := make([]metrics.Sample, 0, len(s.served))
			for tenant, n := range s.served {
				out = append(out, metrics.Sample{
					Name:  fmt.Sprintf("sfserve_points_completed{tenant=%q}", tenant),
					Value: float64(n),
				})
			}
			s.mu.Unlock()
			sortSamples(out)
			return out
		})
}

// tenantStateSamples counts jobs in one state, grouped by tenant.
func (s *Service) tenantStateSamples(name string, state State) []metrics.Sample {
	s.mu.Lock()
	counts := make(map[string]int)
	for _, j := range s.jobs {
		if j.State == state {
			counts[j.Tenant]++
		}
	}
	s.mu.Unlock()
	out := make([]metrics.Sample, 0, len(counts))
	for tenant, n := range counts {
		out = append(out, metrics.Sample{
			Name:  fmt.Sprintf("%s{tenant=%q}", name, tenant),
			Value: float64(n),
		})
	}
	sortSamples(out)
	return out
}

// sortSamples orders samples by name so scrapes are stable.
func sortSamples(ss []metrics.Sample) {
	sort.Slice(ss, func(i, k int) bool { return ss[i].Name < ss[k].Name })
}
