package main

import (
	"fmt"
	"sync"
	"syscall"
)

// arenaChunk is the size of one anonymous mapping of the arena.
const arenaChunk = 64 << 20

// arena holds the encoded trees outside the Go heap. The benchmark runs
// in the server's process, and hundreds of megabytes of inputs on the
// heap would raise the garbage collector's target far above what the
// server alone keeps live, so the server would collect less often than
// it does in production. Mapped memory is invisible to the collector.
type arena struct {
	mu     sync.Mutex
	chunks [][]byte
	free   []byte
}

// copy returns a copy of b in the arena. Safe for concurrent use.
func (a *arena) copy(b []byte) ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(b) > len(a.free) {
		m, err := syscall.Mmap(-1, 0, max(arenaChunk, len(b)), syscall.PROT_READ|syscall.PROT_WRITE,
			syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return nil, fmt.Errorf("mapping input memory: %w", err)
		}
		a.chunks = append(a.chunks, m)
		a.free = m
	}
	out := a.free[:len(b):len(b)]
	copy(out, b)
	a.free = a.free[len(b):]
	return out, nil
}

// release unmaps the arena. No slice it returned may be used afterwards.
func (a *arena) release() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	var first error
	for _, m := range a.chunks {
		if err := syscall.Munmap(m); err != nil && first == nil {
			first = err
		}
	}
	a.chunks, a.free = nil, nil
	return first
}
