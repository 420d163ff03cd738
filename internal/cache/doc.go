// Package cache models the three-level cache hierarchy the paper's trace
// generator uses to filter raw memory accesses before they reach the memory
// network (Section V): 32 KB L1, 2 MB L2, 32 MB L3 with associativities 4,
// 8 and 16, 64-byte lines, LRU replacement, and write-back write-allocate
// semantics. Only L3 misses and write-backs become memory-network traffic.
//
// Each level is one flat []uint64: a set's ways sit next to each other in
// LRU order, each packed as line<<2 | dirty<<1 | valid, so a probe is one
// masked compare per way and a hit or an insert is one copy within the set.
// A hierarchy is a handful of allocations however many sets it has, and
// Hierarchy.Reset empties it in place so one can be reused: a reset
// hierarchy answers every access exactly as a fresh one would. The
// layout it replaced (three slices per set) lives on in the package's tests
// as the reference model every access is compared against.
//
// Hierarchy.Warm is Access for warm-up accesses whose Results nobody
// reads, and it runs lazily. The L1 part runs at once; the L2/L3 part of
// each L1 miss is appended to the log of its unit, the lines that share
// one L2 set and the L3 sets under it (or one L3 set and the L2 sets over
// it, where L3 has fewer sets). The first Access that misses L1 in a unit
// replays the unit's log, in order, through that unit's sets; a unit no
// Access reaches is never simulated. The state is exactly the eager one,
// since L1 inserts on every L1 miss and L2 on every L2 miss whatever the
// levels below hold. Until it is replayed a log lives in its unit's own
// idle L3 ways, two packed 32-bit entries to a way, and spills to a small
// overflow arena, so the lazy state adds no per-set allocation. An even
// entry waits in the unit's record until its odd partner arrives, so the
// log writes each way once, as one whole 64-bit store, and never reads
// the L3 array back. Reset clears only L1 and the logs.
//
// Warm runs the paper's 4-way L1 through touch4, which compares all four
// ways and moves them with selects instead of touch's probe loop and
// copy; L2 and L3, and every Access, keep touch.
package cache
