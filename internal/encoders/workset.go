package encoders

import (
	"fmt"
	"slices"
	"sync"

	"vcprof/internal/codec"
	"vcprof/internal/trace"
	"vcprof/internal/video"
)

// workingSet is the memory one encode works in: the traced address
// space, every picture's six surfaces and analysis grids, each entropy
// partition's coder and output buffer, each worker's scratch with its
// plan arena and task context, the task graph's storage, and the list
// of reconstruction views assemble measures quality on. An encode takes
// one from the free list on entry and gives it back after assemble, so
// a warm encode allocates little more than its outputs (the Result's
// per-frame slices and the assembled bitstream, which never alias the
// set). Slot i of pics is always picture i, and a
// reused slot registers its regions again under the names it formatted
// once, in the order a new one would: every traced address is the same
// as on a new set (DESIGN.md §4).
type workingSet struct {
	aw, ah  int // the aligned luma geometry, the free list's key
	as      *trace.AddressSpace
	pics    []*picture
	workers workerSet
	graph   graph
	recon   []*video.Frame // the pictures' reconstruction views, in order
	size    int            // bytes() when last released
}

// idleSets is the free list of working sets between encodes. It is not
// a sync.Pool: the collector empties a Pool when it likes, which would
// make the bytes an encode allocates follow GC timing (ROADMAP item 6).
// It keeps at most maxIdlePerGeometry sets of one geometry and at most
// maxIdleBytes of retained memory in all; a release past either bound
// drops the set released longest ago, and a set larger than
// maxIdleBytes on its own is not kept.
var idleSets struct {
	mu   sync.Mutex
	sets []*workingSet // oldest release first
}

const (
	maxIdlePerGeometry = 4
	maxIdleBytes       = 32 << 20
)

// acquireWorkingSet returns an idle set of the aw×ah geometry, the one
// released last, or a new empty one. Its address space is empty either
// way.
func acquireWorkingSet(aw, ah int) *workingSet {
	idleSets.mu.Lock()
	defer idleSets.mu.Unlock()
	for i := len(idleSets.sets) - 1; i >= 0; i-- {
		if s := idleSets.sets[i]; s.aw == aw && s.ah == ah {
			idleSets.sets = slices.Delete(idleSets.sets, i, i+1)
			s.as.Reset()
			return s
		}
	}
	return &workingSet{aw: aw, ah: ah, as: trace.NewAddressSpace()}
}

// release gives the set back to the free list once the encode that
// acquired it has assembled its Result and its task graph has stopped.
// It drops every reference into that encode (contexts, the stream
// encoder, reference pictures), so an idle set holds only its own
// buffers. A failed or cancelled encode never releases its set.
func (s *workingSet) release() {
	for _, p := range s.pics {
		for i := range p.segs {
			sc := &p.segs[i]
			sc.enc.Reset(nil, 0)
			*sc = segCtx{enc: sc.enc, region: sc.region}
		}
	}
	clear(s.workers.ctxs)
	s.workers.ctxs = s.workers.ctxs[:0]
	s.graph.reset()
	if s.size = s.bytes(); s.size > maxIdleBytes {
		return
	}
	idleSets.mu.Lock()
	defer idleSets.mu.Unlock()
	idle := append(idleSets.sets, s)
	sameGeometry := func(t *workingSet) bool { return t.aw == s.aw && t.ah == s.ah }
	same, total := 0, 0
	for _, t := range idle {
		if sameGeometry(t) {
			same++
		}
		total += t.size
	}
	if same > maxIdlePerGeometry {
		i := slices.IndexFunc(idle, sameGeometry)
		total -= idle[i].size
		idle = slices.Delete(idle, i, i+1)
	}
	for total > maxIdleBytes {
		total -= idle[0].size
		idle = slices.Delete(idle, 0, 1)
	}
	idleSets.sets = idle
}

// bytes is the memory the set retains: its planes, grids, output
// buffers and worker scratch.
func (s *workingSet) bytes() int {
	n := len(s.workers.scratch) * scratchBytes
	for _, p := range s.pics {
		for _, sf := range p.surfaces() {
			n += len(sf.Pix)
		}
		n += 4*cap(p.mvGrid) + 4*cap(p.intraBuf)
		for _, b := range p.segStreams[:cap(p.segStreams)] {
			n += cap(b)
		}
	}
	return n
}

// picture returns slot idx, made (planes, grids and region names) the
// first time the set holds that many pictures.
func (s *workingSet) picture(idx, gw, gh int) *picture {
	for len(s.pics) <= idx {
		i := len(s.pics)
		p := &picture{index: i, mvGrid: make([]codec.MV, gw*gh)}
		caw, cah := s.aw/2, s.ah/2
		for j, sf := range p.surfaces() {
			w, h := s.aw, s.ah
			if j%3 != 0 {
				w, h = caw, cah
			}
			sf.Plane = video.NewPlane(w, h)
			p.regions[j] = fmt.Sprintf("pic%d/%s", i, surfaceNames[j])
		}
		s.pics = append(s.pics, p)
	}
	return s.pics[idx]
}

// scratchAt returns worker i's scratch, made the first time the set
// serves that many workers.
func (s *workingSet) scratchAt(i int) *workScratch {
	for len(s.workers.scratch) <= i {
		s.workers.scratch = append(s.workers.scratch, newWorkScratch(fmt.Sprintf("w%d", len(s.workers.scratch))))
	}
	return s.workers.scratch[i]
}
