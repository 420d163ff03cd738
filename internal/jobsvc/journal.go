package jobsvc

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The state directory holds two append-only JSONL artifacts:
//
//	jobs.jsonl          the job log — one record per submission and per
//	                    state transition; replaying it reconstructs the
//	                    queue, so a restarted coordinator resumes pending
//	                    work
//	job-<id>.ckpt.jsonl one checkpoint journal per job — one record per
//	                    completed (point, result) pair; a resumed job
//	                    re-runs only the points missing here
//
// Both tolerate a torn final line (the crash the journal exists to
// survive can land mid-append): unparseable lines are skipped on replay,
// and the work they would have recorded simply re-runs deterministically.

// logRecord is one line of the job log.
type logRecord struct {
	// Op is "submit" or "state".
	Op       string          `json:"op"`
	ID       string          `json:"id"`
	Tenant   string          `json:"tenant,omitempty"`
	Priority int             `json:"priority,omitempty"`
	Points   int             `json:"points,omitempty"`
	Spec     json.RawMessage `json:"spec,omitempty"`
	State    State           `json:"state,omitempty"`
	Error    string          `json:"error,omitempty"`
	At       time.Time       `json:"at"`
}

// appender serializes JSONL appends to one file.
type appender struct {
	mu sync.Mutex
	f  *os.File
	// unsynced counts appends since the last fsync; the job log syncs
	// every record (transitions are rare), checkpoint journals every
	// journalSyncEvery (a million-point sweep cannot afford an fsync per
	// point, and a lost tail only re-runs deterministically).
	unsynced  int
	syncEvery int
}

const journalSyncEvery = 64

func openAppender(path string, syncEvery int) (*appender, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &appender{f: f, syncEvery: syncEvery}, nil
}

func (a *appender) append(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.f == nil {
		return fmt.Errorf("jobsvc: append to closed file")
	}
	if _, err := a.f.Write(append(line, '\n')); err != nil {
		return err
	}
	a.unsynced++
	if a.unsynced >= a.syncEvery {
		a.unsynced = 0
		return a.f.Sync()
	}
	return nil
}

func (a *appender) close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.f != nil {
		a.f.Sync()
		a.f.Close()
		a.f = nil
	}
}

// readJSONL streams every parseable line of path to fn; missing files
// read as empty. Unparseable lines (torn tail of a crashed append) are
// skipped.
func readJSONL(path string, fn func(line []byte)) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		fn(line)
	}
	return sc.Err()
}

// logPath is the job log's location under the state dir.
func logPath(dir string) string { return filepath.Join(dir, "jobs.jsonl") }

// journalPath is job id's checkpoint journal location.
func journalPath(dir, id string) string {
	return filepath.Join(dir, "job-"+id+".ckpt.jsonl")
}

// replayLog reconstructs the job table from the job log. Jobs that were
// running when the previous coordinator died come back queued — their
// checkpoint journals carry the completed points.
func replayLog(dir string) (map[string]*Job, int, error) {
	jobs := make(map[string]*Job)
	seq := 0
	err := readJSONL(logPath(dir), func(line []byte) {
		var rec logRecord
		if json.Unmarshal(line, &rec) != nil {
			return // torn append; the transition it recorded re-derives
		}
		switch rec.Op {
		case "submit":
			seq++
			jobs[rec.ID] = &Job{
				ID:        rec.ID,
				Tenant:    rec.Tenant,
				Priority:  rec.Priority,
				Spec:      rec.Spec,
				Points:    rec.Points,
				State:     StateQueued,
				Submitted: rec.At,
				seq:       seq,
			}
		case "state":
			j := jobs[rec.ID]
			if j == nil {
				return
			}
			j.State = rec.State
			j.Error = rec.Error
			if rec.State.terminal() {
				j.Finished = rec.At
			}
		}
	})
	if err != nil {
		return nil, 0, err
	}
	for _, j := range jobs {
		if j.State == StateRunning {
			j.State = StateQueued
		}
	}
	return jobs, seq, nil
}

// journal is one job's open checkpoint journal: the deduplicated set of
// completed points plus the arrival-order result list used for stream
// replay.
type journal struct {
	mu      sync.Mutex
	app     *appender
	done    map[int]bool
	results []PointResult
}

// openJournal opens (creating if needed) and replays job id's journal.
func openJournal(dir, id string) (*journal, error) {
	results, err := readJournal(dir, id)
	if err != nil {
		return nil, err
	}
	app, err := openAppender(journalPath(dir, id), journalSyncEvery)
	if err != nil {
		return nil, err
	}
	j := &journal{app: app, done: make(map[int]bool, len(results)), results: results}
	for _, r := range results {
		j.done[r.Point] = true
	}
	return j, nil
}

// readJournal replays job id's checkpoint journal into its deduplicated
// arrival-order results (first record per point wins; duplicates can only
// be byte-identical re-emissions from a crashed run).
func readJournal(dir, id string) ([]PointResult, error) {
	var results []PointResult
	seen := make(map[int]bool)
	err := readJSONL(journalPath(dir, id), func(line []byte) {
		var r PointResult
		if json.Unmarshal(line, &r) != nil || r.Point < 0 || seen[r.Point] {
			return
		}
		seen[r.Point] = true
		results = append(results, r)
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// record checkpoints one point. fresh is false when the point was already
// journaled (a requeued duplicate — dropped, keeping the journal a set);
// for a fresh point, seq is its index in the arrival order snapshot
// returns, so a snapshot of length n holds exactly the records with
// seq < n.
func (j *journal) record(r PointResult) (seq int, fresh bool, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if r.Point < 0 || j.done[r.Point] {
		return 0, false, nil
	}
	if err := j.app.append(r); err != nil {
		return 0, false, err
	}
	j.done[r.Point] = true
	j.results = append(j.results, r)
	return len(j.results) - 1, true, nil
}

// completed returns the checkpointed point count.
func (j *journal) completed() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// has reports whether a point is checkpointed.
func (j *journal) has(point int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.done[point]
}

// snapshot copies the arrival-order results.
func (j *journal) snapshot() []PointResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]PointResult(nil), j.results...)
}

// close flushes and closes the journal file.
func (j *journal) close() { j.app.close() }

// sortByPoint orders results by point index — the merge order of the
// results endpoint, identical for interrupted and uninterrupted runs.
func sortByPoint(rs []PointResult) {
	sort.Slice(rs, func(i, k int) bool { return rs[i].Point < rs[k].Point })
}
