package trace

import (
	"fmt"
	"sync"
)

// PC is a synthetic program counter. Every static instrumentation site
// (a loop branch, a compare, a kernel's load stream) registers once and
// receives a stable PC, so dynamic events from the same source location
// share a PC exactly as native branches share an address — the property
// branch predictors and BTBs key on. The synthetic text segment ends
// below 8 MiB, so a PC is 32 bits, which is what lets a MicroOp be 16
// bytes and a tape record carry its PC in the header word.
type PC uint32

// FuncID identifies a function for gprof-style profiling.
type FuncID uint32

var siteRegistry = struct {
	sync.Mutex
	byName map[string]PC
	names  map[PC]string
}{
	byName: make(map[string]PC),
	names:  make(map[PC]string),
}

// codeBase and codeSpan define the synthetic text segment. Sites are
// placed by a hash of their name across a multi-megabyte span, matching
// how branches of a real encoder binary scatter over its text section —
// the spread that creates index-aliasing pressure in small predictor
// tables and realistic I-cache footprints.
const (
	codeBase = 0x400000
	codeSpan = 1 << 22 // 4 MiB of text
)

// fnv1a hashes a site name.
func fnv1a(name string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// Site registers (or looks up) the instrumentation site with the given
// name and returns its PC. Sites are typically package-level variables:
//
//	var pcSADLoop = trace.Site("motion.SAD/rowloop")
func Site(name string) PC {
	r := &siteRegistry
	r.Lock()
	defer r.Unlock()
	if pc, ok := r.byName[name]; ok {
		return pc
	}
	pc := PC(codeBase + (fnv1a(name)%codeSpan)&^15)
	// Linear-probe hash collisions so distinct sites keep distinct PCs.
	for {
		if _, taken := r.names[pc]; !taken {
			break
		}
		pc += 16
	}
	r.byName[name] = pc
	r.names[pc] = name
	return pc
}

// Sites registers a family of n related sites ("name#0" … "name#n-1"),
// modeling the per-block-size kernel specializations real codecs compile
// (sad4x4, sad16x16, …): each specialization is a distinct static branch
// in the binary, and that static-site diversity is what pressures
// finite predictor tables.
func Sites(name string, n int) []PC {
	out := make([]PC, n)
	for i := range out {
		out[i] = Site(fmt.Sprintf("%s#%d", name, i))
	}
	return out
}

// funcRegistry reserves ID 0, where a Ctx starts, for the work no
// Enter covers, so a profile books it on a row of its own rather than
// on whichever function registered first.
var funcRegistry = struct {
	sync.Mutex
	byName map[string]FuncID
	names  []string
}{byName: map[string]FuncID{"(unprofiled)": 0}, names: []string{"(unprofiled)"}}

// Func registers (or looks up) a profiled function name and returns its
// identifier. Used with Ctx.Enter / Ctx.Leave for flat profiles.
func Func(name string) FuncID {
	r := &funcRegistry
	r.Lock()
	defer r.Unlock()
	if id, ok := r.byName[name]; ok {
		return id
	}
	id := FuncID(len(r.names))
	r.names = append(r.names, name)
	r.byName[name] = id
	return id
}

// FuncName returns the registered name for an id, or "" if unknown.
func FuncName(id FuncID) string {
	r := &funcRegistry
	r.Lock()
	defer r.Unlock()
	if int(id) < len(r.names) {
		return r.names[id]
	}
	return ""
}
