// Package lockbad seeds every locklint finding kind next to the clean
// idioms the analyzer must not flag.
package lockbad

import (
	"os"
	"sync"
	"time"
)

type box struct {
	mu sync.Mutex
	n  int
	ch chan int
}

func (b *box) badIO(path string) {
	b.mu.Lock()
	_ = os.WriteFile(path, nil, 0o644) // want "mutex b.mu held across call to os.WriteFile"
	b.mu.Unlock()
}

func (b *box) badSleep() {
	b.mu.Lock()
	defer b.mu.Unlock()
	time.Sleep(time.Millisecond) // want "mutex b.mu held across call to time.Sleep"
}

func (b *box) badSend() {
	b.mu.Lock()
	b.ch <- 1 // want "mutex b.mu held across channel send"
	b.mu.Unlock()
}

func (b *box) badRecv() int {
	b.mu.Lock()
	v := <-b.ch // want "mutex b.mu held across channel receive"
	b.mu.Unlock()
	return v
}

func (b *box) badSelect() {
	b.mu.Lock()
	select { // want "mutex b.mu held across select with no default"
	case v := <-b.ch:
		b.n = v
	}
	b.mu.Unlock()
}

func (b *box) badWait(wg *sync.WaitGroup) {
	b.mu.Lock()
	wg.Wait() // want "mutex b.mu held across call to \\(\\*sync.WaitGroup\\).Wait"
	b.mu.Unlock()
}

// Early return with the lock held deadlocks the next caller.
func (b *box) badReturn(v int) error {
	b.mu.Lock()
	if v < 0 {
		return os.ErrInvalid // want "return leaves mutex b.mu locked"
	}
	b.n = v
	b.mu.Unlock()
	return nil
}

func (b *box) badPanic(v int) {
	b.mu.Lock()
	if v < 0 {
		panic("negative") // want "panic leaves mutex b.mu locked"
	}
	b.n = v
	b.mu.Unlock()
}

func (b *box) badEnd() {
	b.mu.Lock()
	b.n++
} // want "function exit leaves mutex b.mu locked"

// flush blocks one hop down; the finding at the caller carries the chain.
func flush(path string) error {
	return os.WriteFile(path, nil, 0o644)
}

func (b *box) badHelper(path string) {
	b.mu.Lock()
	_ = flush(path) // want "mutex b.mu held across call to flush \\(blocks: flush: call to os.WriteFile\\)"
	b.mu.Unlock()
}

// A hatch with a reason silences the finding.
func (b *box) hatched(path string) {
	b.mu.Lock()
	_ = os.WriteFile(path, nil, 0o644) //ce:lock-ok startup path, no other goroutine is live yet
	b.mu.Unlock()
}

// --- clean idioms below: no findings ---

func (b *box) clean(v int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n += v
	return b.n
}

// A select with a default polls; its clauses do not block.
func (b *box) poll() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	select {
	case v := <-b.ch:
		b.n = v
		return true
	default:
		return false
	}
}

// Branches that release before returning are fine.
func (b *box) branchy(v int) error {
	b.mu.Lock()
	if v < 0 {
		b.mu.Unlock()
		return os.ErrInvalid
	}
	b.n = v
	b.mu.Unlock()
	return nil
}

// Blocking after the unlock is fine.
func (b *box) after(path string) {
	b.mu.Lock()
	p := b.n
	b.mu.Unlock()
	_ = os.WriteFile(path, []byte{byte(p)}, 0o644)
}

// The goroutine's blocking is its own, not the spawner's.
func (b *box) spawn(path string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	go func() {
		_ = os.WriteFile(path, nil, 0o644)
	}()
}

// An unlock inside a deferred closure still counts as deferred.
func (b *box) deferredClosure(v int) error {
	b.mu.Lock()
	defer func() {
		b.mu.Unlock()
	}()
	if v < 0 {
		return os.ErrInvalid
	}
	b.n = v
	return nil
}
