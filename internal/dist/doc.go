// Package dist implements the transport behind distributed sweep
// execution: a TCP coordinator that shards opaque task payloads over
// remote workers and streams their outcomes back, with heartbeats and
// requeue-on-worker-loss fault tolerance. Every run's tasks wait in one
// queue, first in first out across runs; each connected worker has one
// dispatcher goroutine that sends it the queue's head whenever it has a
// free slot, and a task lost with its worker goes back to the tail. The
// coordinator only transports: a task no worker can take goes back to the
// caller as ErrNoWorkers, and the caller runs it on its own pool.
//
// The package is deliberately payload-agnostic — tasks and results travel
// as []byte blobs produced by the embedding layer (the root stringfigure
// package encodes sweep points and session results), so the coordinator
// and worker stay a pure distribution engine with no knowledge of
// simulations. Every message rides in one length-prefixed gob frame; see
// codec.go for the wire format.
package dist
