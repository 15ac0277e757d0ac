package ring

import "testing"

func TestPushPopFIFO(t *testing.T) {
	b := New[int](100)
	for i := 0; i < 100; i++ {
		b.PushBack(i)
	}
	if b.Len() != 100 {
		t.Fatalf("Len = %d, want 100", b.Len())
	}
	if b.Front() != 0 || b.Back() != 99 {
		t.Fatalf("Front/Back = %d/%d, want 0/99", b.Front(), b.Back())
	}
	for i := 0; i < 100; i++ {
		if got := b.PopFront(); got != i {
			t.Fatalf("PopFront = %d, want %d", got, i)
		}
	}
	if b.Len() != 0 {
		t.Fatalf("Len = %d after draining, want 0", b.Len())
	}
}

// TestWraparound drives head and tail around the backing array many times
// at constant occupancy, so pushes and pops cross the wrap point.
func TestWraparound(t *testing.T) {
	b := New[int](12)
	next := 0
	for i := 0; i < 12; i++ {
		b.PushBack(i)
	}
	for step := 0; step < 1000; step++ {
		if got := b.PopFront(); got != next {
			t.Fatalf("step %d: PopFront = %d, want %d", step, got, next)
		}
		next++
		b.PushBack(step + 12)
		if b.Len() != 12 {
			t.Fatalf("step %d: Len = %d, want 12", step, b.Len())
		}
		for i := 0; i < b.Len(); i++ {
			if got := b.At(i); got != next+i {
				t.Fatalf("step %d: At(%d) = %d, want %d", step, i, got, next+i)
			}
		}
	}
}

// TestFullWhileWrapped fills a buffer whose contents wrap around the end
// of the backing array: every slot is usable, and one push past capacity
// panics instead of growing.
func TestFullWhileWrapped(t *testing.T) {
	b := New[int](16)
	if len(b.buf) != 16 {
		t.Fatalf("capacity = %d, want 16", len(b.buf))
	}
	// Rotate so head != 0, then fill every slot.
	for i := 0; i < 10; i++ {
		b.PushBack(i)
	}
	for i := 0; i < 10; i++ {
		b.PopFront()
	}
	for i := 0; i < 16; i++ {
		b.PushBack(i)
	}
	for i := 0; i < 16; i++ {
		if got := b.At(i); got != i {
			t.Fatalf("At(%d) = %d, want %d", i, got, i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("PushBack on a full buffer did not panic")
		}
		if b.Len() != 16 || len(b.buf) != 16 {
			t.Errorf("full buffer changed: Len = %d, capacity = %d", b.Len(), len(b.buf))
		}
	}()
	b.PushBack(16)
}

// TestNewRoundsUp pins the capacity rule: the requested bound rounded up
// to a power of two.
func TestNewRoundsUp(t *testing.T) {
	for _, tc := range []struct{ n, want int }{{0, 1}, {1, 1}, {2, 2}, {3, 4}, {32, 32}, {33, 64}, {129, 256}} {
		if b := New[int](tc.n); len(b.buf) != tc.want {
			t.Errorf("New(%d) capacity = %d, want %d", tc.n, len(b.buf), tc.want)
		}
	}
}

func TestPopBack(t *testing.T) {
	b := New[int](20)
	for i := 0; i < 20; i++ {
		b.PushBack(i)
	}
	for i := 19; i >= 10; i-- {
		if got := b.PopBack(); got != i {
			t.Fatalf("PopBack = %d, want %d", got, i)
		}
	}
	if b.Front() != 0 || b.Back() != 9 {
		t.Fatalf("Front/Back = %d/%d, want 0/9", b.Front(), b.Back())
	}
}

// TestPopZeroesSlots checks that removed elements are not retained through
// the backing array (the ROB reslice leak this package exists to fix).
func TestPopZeroesSlots(t *testing.T) {
	b := New[*int](4)
	v := new(int)
	b.PushBack(v)
	b.PopFront()
	for i, p := range b.buf {
		if p != nil {
			t.Fatalf("buf[%d] still set after PopFront", i)
		}
	}
	b.PushBack(v)
	b.PushBack(v)
	b.Clear()
	for i, p := range b.buf {
		if p != nil {
			t.Fatalf("buf[%d] still set after Clear", i)
		}
	}
	b.PushBack(v)
	b.PopBack()
	for i, p := range b.buf {
		if p != nil {
			t.Fatalf("buf[%d] still set after PopBack", i)
		}
	}
}

func TestPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	b := New[int](4)
	expectPanic("PopFront on empty buffer", func() { b.PopFront() })
	expectPanic("PopBack on empty buffer", func() { b.PopBack() })
	expectPanic("Front on empty buffer", func() { b.Front() })
	expectPanic("Back on empty buffer", func() { b.Back() })
	expectPanic("At on empty buffer", func() { b.At(0) })
	var zero Buffer[int]
	expectPanic("PushBack on the zero Buffer", func() { zero.PushBack(1) })
}
