// Package trace synthesizes the real-workload memory traces of Table IV.
// The paper collects Pin traces of Spark jobs, PageRank, Redis, Memcached,
// matrix multiplication and k-means on real hardware; this reproduction
// models each workload's characteristic memory access pattern directly
// instead, filters the raw stream through
// the paper's cache hierarchy (internal/cache), and emits the post-L3
// stream of memory-network operations with instruction-ID timestamps, 100k
// operations per trace as in Section V.
//
// Generate is the pure kernel: a trace is a function of the workload model,
// the address map, the op count and two seeds, and of nothing else — in
// particular not of the network design that will replay it. Shared puts
// that kernel behind a process-wide, bounded store keyed by exactly those
// arguments, so the designs of one Figure 12 row synthesize each trace
// once. Shared runs each synthesis on one of runtime.GOMAXPROCS(0)
// process-wide synthesis slots (the count is read at first use): callers
// with distinct keys synthesize in parallel up to that bound, and each slot
// keeps one paper cache hierarchy that it Resets between syntheses, so at
// most that many 4.5 MB hierarchies ever exist. Generate allocates its own
// hierarchy and never takes a slot. Traces from Shared are read-only;
// golden digests in the tests pin Generate's output, and Shared's on a
// reused slot, to history.
//
// The Zipf workloads (pagerank, redis, memcached) draw from zipf, a copy
// of math/rand's rejection-inversion sampler that returns the same values
// from the same draws. Its constants and loop are math/rand's, expression
// for expression, and a head table of draw intervals answers the first
// 16 values without the loop's Log and Exp: a draw inside head[k] is one
// the loop would turn into k on its first attempt. Each interval comes
// from the same h as the loop and is cut 1e-9 inward at both ends: about
// 10⁷ ulps near 1, and for the workloads' exponents over 10⁻¹⁰ in the
// loop's x, where Log and Exp err by a few ulps. Every other draw runs
// the loop itself. So the draw
// stream and every value stay math/rand's, which the tests check against
// math/rand.Zipf draw for draw and at every interval edge. math/rand.Zipf
// remains only as that test oracle. jitter likewise draws through
// int63n, rand.Int63n with the workloads' moduli as constants.
package trace
