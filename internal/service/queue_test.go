package service

import (
	"errors"
	"testing"
	"time"
)

func qjob(prio int) *Job {
	s := validEncodeSpec()
	s.Priority = prio
	s.CRF = 20 + prio // make specs distinct
	return newJob(s, s.Key(), "")
}

func TestQueuePriorityThenArrival(t *testing.T) {
	q := newQueue(16)
	interactive := qjob(PriorityInteractive)
	batch := qjob(PriorityBatch)
	defA := qjob(PriorityDefault)
	defB := qjob(PriorityDefault)
	defB.spec.Frames = 3 // distinct from defA
	for _, j := range []*Job{batch, defA, defB, interactive} {
		if err := q.push(j); err != nil {
			t.Fatal(err)
		}
	}
	want := []*Job{interactive, defA, defB, batch}
	for i, w := range want {
		j, ok := q.pop()
		if !ok {
			t.Fatalf("pop %d: queue empty", i)
		}
		if j != w {
			t.Fatalf("pop %d: got priority %d seq %d, want priority %d seq %d",
				i, j.spec.Priority, j.seq, w.spec.Priority, w.seq)
		}
	}
}

func TestQueueSaturation(t *testing.T) {
	q := newQueue(2)
	if err := q.push(qjob(0)); err != nil {
		t.Fatal(err)
	}
	if err := q.push(qjob(1)); err != nil {
		t.Fatal(err)
	}
	if err := q.push(qjob(2)); !errors.Is(err, ErrSaturated) {
		t.Fatalf("third push: err = %v, want ErrSaturated", err)
	}
	if d := q.depth(); d != 2 {
		t.Errorf("depth = %d, want 2", d)
	}
	// Popping frees a slot.
	q.pop()
	if err := q.push(qjob(2)); err != nil {
		t.Errorf("push after pop: %v", err)
	}
}

func TestQueueCloseDrains(t *testing.T) {
	q := newQueue(8)
	q.push(qjob(0))
	q.push(qjob(1))
	q.close()
	if err := q.push(qjob(2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("push after close: err = %v, want ErrClosed", err)
	}
	// Already-queued jobs still drain...
	for i := 0; i < 2; i++ {
		if _, ok := q.pop(); !ok {
			t.Fatalf("pop %d after close returned !ok before drain", i)
		}
	}
	// ...then pop reports exhaustion.
	if _, ok := q.pop(); ok {
		t.Fatal("pop returned a job from a closed empty queue")
	}
}

func TestQueuePopBlocksUntilPush(t *testing.T) {
	q := newQueue(4)
	got := make(chan *Job, 1)
	go func() {
		j, ok := q.pop()
		if ok {
			got <- j
		}
	}()
	// The popper must be parked, not spinning on an empty queue.
	select {
	case <-got:
		t.Fatal("pop returned from an empty queue")
	case <-time.After(10 * time.Millisecond):
	}
	want := qjob(1)
	if err := q.push(want); err != nil {
		t.Fatal(err)
	}
	select {
	case j := <-got:
		if j != want {
			t.Fatal("popped a different job")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("push did not wake the popper")
	}
}
