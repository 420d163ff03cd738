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
package cache
