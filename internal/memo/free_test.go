package memo

import (
	"runtime"
	"sync"
	"testing"
)

// TestFreeBoundedByKey: the zero list is empty and ready; a value
// given back is the next one taken under its key and never under
// another; at most GOMAXPROCS idle values are kept a key; and a warm
// Take and Give allocate nothing.
func TestFreeBoundedByKey(t *testing.T) {
	var f Free[string, *int]
	if _, ok := f.Take("a"); ok {
		t.Fatal("the zero list handed out a value")
	}
	bound := runtime.GOMAXPROCS(0)
	vals := make([]*int, bound+3)
	for i := range vals {
		vals[i] = new(int)
		*vals[i] = i
		f.Give("a", vals[i])
	}
	if _, ok := f.Take("b"); ok {
		t.Fatal("a value given under one key was taken under another")
	}
	for i := bound - 1; i >= 0; i-- {
		v, ok := f.Take("a")
		if !ok || v != vals[i] {
			t.Fatalf("take %d: got %v, %v, want value %d: the list keeps the first %d given, last in first out", bound-1-i, v, ok, i, bound)
		}
	}
	if v, ok := f.Take("a"); ok {
		t.Fatalf("the list kept %d past its bound of %d", *v, bound)
	}
	f.Give("a", vals[0])
	if n := testing.AllocsPerRun(100, func() {
		v, _ := f.Take("a")
		f.Give("a", v)
	}); n != 0 {
		t.Errorf("a warm Take and Give allocated %v times", n)
	}
}

// TestFreeConcurrent: goroutines taking and giving under one key never
// hold the same value at once (run it under -race).
func TestFreeConcurrent(t *testing.T) {
	var f Free[int, *int]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				v, ok := f.Take(1)
				if !ok {
					v = new(int)
				}
				if *v != 0 {
					t.Error("a value was handed out while another goroutine held it")
					return
				}
				*v = 1
				*v = 0
				f.Give(1, v)
			}
		}()
	}
	wg.Wait()
}
