package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Profile accumulates gprof-style flat profiles: per-function call and
// dynamic-instruction counts. It substitutes for the paper's use of GNU
// gprof to find hot functions and choose trace windows.
type Profile struct {
	mu    sync.Mutex
	calls map[FuncID]uint64
	insts map[FuncID]uint64
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{calls: make(map[FuncID]uint64), insts: make(map[FuncID]uint64)}
}

func (p *Profile) call(fn FuncID) {
	p.mu.Lock()
	p.calls[fn]++
	p.mu.Unlock()
}

func (p *Profile) ops(fn FuncID, n uint64) {
	p.mu.Lock()
	p.insts[fn] += n
	p.mu.Unlock()
}

// Merge folds another profile into p.
func (p *Profile) Merge(o *Profile) {
	if o == nil || o == p {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	for fn, n := range o.calls {
		p.calls[fn] += n
	}
	for fn, n := range o.insts {
		p.insts[fn] += n
	}
}

// Entry is one row of a flat profile.
type Entry struct {
	Name    string
	Calls   uint64
	Insts   uint64
	Percent float64
}

// Flat returns the profile sorted by descending instruction count.
func (p *Profile) Flat() []Entry {
	p.mu.Lock()
	defer p.mu.Unlock()
	var total uint64
	for _, n := range p.insts {
		total += n
	}
	out := make([]Entry, 0, len(p.insts))
	for fn, n := range p.insts {
		e := Entry{Name: FuncName(fn), Calls: p.calls[fn], Insts: n}
		if total > 0 {
			e.Percent = 100 * float64(n) / float64(total)
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Insts != out[j].Insts {
			return out[i].Insts > out[j].Insts
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Render formats the flat profile like gprof's flat listing.
func (p *Profile) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %12s %16s %7s\n", "function", "calls", "instructions", "%")
	for _, e := range p.Flat() {
		fmt.Fprintf(&b, "%-40s %12d %16d %6.2f%%\n", e.Name, e.Calls, e.Insts, e.Percent)
	}
	return b.String()
}
