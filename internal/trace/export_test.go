package trace

import "fmt"

// ResetSharedForTest lets the package's external tests start from a cold
// store.
var ResetSharedForTest = resetShared

// CheckSharedWholeForTest reports an error unless every trace in the store
// is finished, has its key's op count and is byte for byte the one
// NewWorkload+Generate builds: a synthesis that was abandoned halfway must
// leave nothing behind.
func CheckSharedWholeForTest() error {
	s := &sharedStore
	s.mu.Lock()
	var entries []*sharedEntry
	for _, e := range s.entries {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	for _, e := range entries {
		k := e.key
		select {
		case <-e.ready:
		default:
			return fmt.Errorf("%s seeds %d/%d: still in flight", k.name, k.wseed, k.gseed)
		}
		want, err := generateNamed(k.name, k.m, k.ops, k.wseed, k.gseed)
		if err != nil {
			return err
		}
		if e.tr == nil || len(e.tr.Ops) != k.ops || traceDigest(e.tr) != traceDigest(want) {
			return fmt.Errorf("%s seeds %d/%d: the stored trace is not Generate's", k.name, k.wseed, k.gseed)
		}
	}
	return nil
}
