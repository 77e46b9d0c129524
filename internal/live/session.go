package live

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"vcprof/internal/encoders"
	"vcprof/internal/obs"
	"vcprof/internal/sched"
	"vcprof/internal/trace"
	"vcprof/internal/uarch/machine"
	"vcprof/internal/video"
)

// instPerCycle is the nominal IPC the virtual timeline charges encode
// work at — the same constant harness.instMS uses to convert modeled
// instructions to modeled time, so live deadlines and VOD table
// milliseconds are on one scale.
const instPerCycle = 2

// Config carries the session's execution environment.
type Config struct {
	// Pool, when non-nil, runs each GOP's encode task graph on the
	// shared shard pool. Results are byte-identical with and
	// without it (the schedule-invariance contract).
	Pool *sched.Pool
}

// ResumeToken is the complete modeled state a session carries across a
// shard failover: a session resumed from a token at a GOP boundary
// continues byte-identically (digests, misses, degrade decisions) with
// the session that never moved. All fields are modeled quantities —
// nothing in it depends on the host.
type ResumeToken struct {
	StartFrame   int    `json:"start_frame"` // frames already encoded (GOP-aligned)
	GOP          int    `json:"gop"`         // next GOP index
	FinishTick   uint64 `json:"finish_tick"` // encode pipeline position
	Degrade      int    `json:"degrade"`     // preset effort steps currently shed
	DegradeTotal int    `json:"degrade_total"`
	Misses       int    `json:"misses"`
	Dropped      int    `json:"dropped"`
	SharedGOPs   int    `json:"shared_gops"`
	Insts        uint64 `json:"insts"`
	Bytes        uint64 `json:"bytes"`
}

// GOPResult reports one encoded (or dropped) GOP.
type GOPResult struct {
	Index  int    `json:"index"`
	Start  int    `json:"start"`  // first frame index
	Frames int    `json:"frames"` // frames in this GOP
	Family string `json:"family"` // effective operating point
	Preset int    `json:"preset"`
	CRF    int    `json:"crf"`
	Digest string `json:"digest"` // hex SHA-256, see gopDigest

	Dropped bool   `json:"dropped,omitempty"`
	Misses  int    `json:"misses"`
	Bytes   int    `json:"bytes"` // summed over rungs
	Insts   uint64 `json:"insts"` // summed over rungs

	// Bitstreams holds the per-rung decodable containers. Local callers
	// (tests, the splice validator) read them; the service layer strips
	// them from wire responses and keeps only the digest.
	Bitstreams [][]byte `json:"-"`
}

// Stats is a session's cumulative accounting, all modeled.
type Stats struct {
	Fed          int    `json:"fed"`     // frames fed
	Encoded      int    `json:"encoded"` // frames encoded (GOP-aligned)
	Dropped      int    `json:"dropped"` // frames shed by the degrade policy
	GOPs         int    `json:"gops"`
	Misses       int    `json:"misses"`  // per-frame deadline misses
	Degrade      int    `json:"degrade"` // current effort steps shed
	DegradeTotal int    `json:"degrade_total"`
	FinishTick   uint64 `json:"finish_tick"`
	BacklogTicks uint64 `json:"backlog_ticks"`
	SharedGOPs   int    `json:"shared_gops"` // rung encodes that reused analysis
	Insts        uint64 `json:"insts"`
	Bytes        uint64 `json:"bytes"`
	Rungs        int    `json:"rungs"`
	Done         bool   `json:"done"`
}

// Session is a long-lived live-encode job. Frames arrive at the spec's
// frame rate on a virtual-tick clock (machine.Xeon().ClockHz ticks per second);
// every completed GOP is encoded — at every ladder rung — and charged
// to the timeline at the nominal IPC, which is where deadline misses
// and the degrade policy come from. One mutex serializes Feed against
// itself and the accessors; encode work inside Feed runs on the
// configured pool.
type Session struct {
	spec SessionSpec
	cfg  Config
	clip *video.Clip
	fps  int
	tpf  uint64 // virtual ticks per frame interval

	mu         sync.Mutex
	fed        int
	encoded    int
	gop        int // next GOP index
	finishTick uint64
	degrade    int
	degradeTot int
	misses     int
	dropped    int
	sharedGOPs int
	insts      uint64
	bytes      uint64
	digests    [][32]byte // per-GOP digests encoded by this instance
	done       bool
}

// New creates a fresh session: the clip (the camera the feed reads
// from) is taken up front, nothing is encoded yet.
func New(spec SessionSpec, cfg Config) (*Session, error) {
	return Resume(spec, cfg, ResumeToken{})
}

// Resume creates a session continuing from a failover token (the zero
// token means a fresh session). The token is client-supplied state: it
// must sit on a GOP boundary and carry no negative shed level or
// counter, and it is checked before anything is paid for on its
// behalf. The clip comes from the process's clip memo, shared with
// every session and cell on the same (clip, frames, div): sessions
// only read it.
func Resume(spec SessionSpec, cfg Config, tok ResumeToken) (*Session, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if tok.StartFrame < 0 || tok.StartFrame > spec.Frames || tok.StartFrame%spec.GOP != 0 {
		return nil, fmt.Errorf("live: resume frame %d not on a GOP boundary of %d", tok.StartFrame, spec.GOP)
	}
	if tok.GOP != tok.StartFrame/spec.GOP {
		return nil, fmt.Errorf("live: resume GOP %d inconsistent with frame %d", tok.GOP, tok.StartFrame)
	}
	// A negative degrade would walk shedPreset toward and past the slow
	// end of the family's preset range. The upper side needs no bound:
	// shedPreset clamps at the fast end.
	if tok.Degrade < 0 || tok.DegradeTotal < 0 || tok.Misses < 0 || tok.Dropped < 0 || tok.SharedGOPs < 0 {
		return nil, fmt.Errorf("live: resume token carries a negative counter (degrade %d, degrade_total %d, misses %d, dropped %d, shared_gops %d)",
			tok.Degrade, tok.DegradeTotal, tok.Misses, tok.Dropped, tok.SharedGOPs)
	}
	clip, _, err := video.Memoized(context.TODO(), spec.Clip, spec.Frames, spec.Div)
	if err != nil {
		return nil, err
	}
	fps := spec.FPS
	if fps == 0 {
		fps = clip.Meta.FPS
	}
	s := &Session{
		spec: spec, cfg: cfg, clip: clip, fps: fps,
		tpf:        ticksPerFrame(fps),
		fed:        tok.StartFrame,
		encoded:    tok.StartFrame,
		gop:        tok.GOP,
		finishTick: tok.FinishTick,
		degrade:    tok.Degrade,
		degradeTot: tok.DegradeTotal,
		misses:     tok.Misses,
		dropped:    tok.Dropped,
		sharedGOPs: tok.SharedGOPs,
		insts:      tok.Insts,
		bytes:      tok.Bytes,
	}
	if tok == (ResumeToken{}) {
		obsSessions.Add(1)
	} else {
		obsResumes.Add(1)
	}
	return s, nil
}

// Spec returns the normalized spec the session runs.
func (s *Session) Spec() SessionSpec {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spec
}

// Feed delivers n more frames to the session (clamped to the spec's
// total) and encodes every GOP they complete. With eos, the trailing
// partial GOP is flushed too and the session is done. The returned
// results are the GOPs encoded by this call, in order.
func (s *Session) Feed(ctx context.Context, n int, eos bool) ([]GOPResult, error) {
	if n < 0 {
		return nil, fmt.Errorf("live: negative frame count %d", n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return nil, fmt.Errorf("live: session already finished")
	}
	s.fed += n
	if s.fed > s.spec.Frames {
		s.fed = s.spec.Frames
	}
	obsFrames.Add(uint64(n))
	var out []GOPResult
	for {
		start := s.gop * s.spec.GOP
		end := start + s.spec.GOP
		if end > s.spec.Frames {
			end = s.spec.Frames
		}
		if start >= s.spec.Frames {
			break
		}
		if s.fed < end && !(eos && s.fed > start) {
			break
		}
		if s.fed < end {
			end = s.fed // eos: flush the partial tail GOP
		}
		res, err := s.encodeGOPLocked(ctx, s.gop, start, end)
		if err != nil {
			return out, err
		}
		out = append(out, res)
		s.gop++
		s.encoded = end
		if end == s.fed {
			break
		}
	}
	if eos {
		s.done = true
	}
	return out, nil
}

// encodeGOPLocked runs one GOP at the effective operating point under the
// degrade policy, advances the virtual timeline, and accounts deadline
// misses. Caller holds s.mu.
func (s *Session) encodeGOPLocked(ctx context.Context, gop, start, end int) (GOPResult, error) {
	family, crf, preset := s.operatingPointLocked(gop)
	ready := s.arrivalTickLocked(end - 1)
	backlog := uint64(0)
	if s.finishTick > ready {
		backlog = s.finishTick - ready
	}
	gopTicks := uint64(end-start) * s.tpf

	// Degrade policy, decided at the GOP boundary from modeled backlog
	// only: shed preset effort first; drop frames only at the floor
	// with the latency budget already blown; recover one step per
	// caught-up GOP.
	maxShed := effortSteps(family, preset)
	switch {
	case backlog > uint64(s.spec.Deadline)*s.tpf && s.degrade >= maxShed:
		s.dropped += end - start
		obsDropped.Add(uint64(end - start))
		res := GOPResult{Index: gop, Start: start, Frames: end - start,
			Family: family, Preset: preset, CRF: crf, Dropped: true}
		d := gopDigest(&res, nil)
		res.Digest = hex.EncodeToString(d[:])
		s.digests = append(s.digests, d)
		obsGOPs.Add(1)
		return res, nil
	case backlog > gopTicks && s.degrade < maxShed:
		s.degrade++
		s.degradeTot++
		obsDegrades.Add(1)
	case backlog == 0 && s.degrade > 0:
		s.degrade--
	}
	effPreset := shedPreset(family, preset, s.degrade)

	sub := &video.Clip{Meta: s.clip.Meta, Frames: s.clip.Frames[start:end]}
	enc, err := encoders.New(encoders.Family(family))
	if err != nil {
		return GOPResult{}, err
	}
	crfs := rungCRFs(crf, s.spec.Rungs)
	share := s.spec.Share && len(crfs) > 1
	var cache *encoders.AnalysisCache
	if share {
		cache = &encoders.AnalysisCache{}
	}

	res := GOPResult{Index: gop, Start: start, Frames: end - start,
		Family: family, Preset: effPreset, CRF: crf}
	frameWork := make([]uint64, end-start) // summed insts per frame across rungs
	for ri, rcrf := range crfs {
		opts := encoders.Options{
			CRF: rcrf, Preset: effPreset, Threads: 1,
			KeepBitstream: true, AnalyzeIntra: true,
			NewWorkerCtx: func(int) *trace.Ctx { return trace.New() },
			Pool:         s.cfg.Pool,
		}
		if share {
			if ri == 0 {
				opts.AnalysisPublish = cache
			} else {
				opts.AnalysisConsume = cache
				s.sharedGOPs++
				obsShared.Add(1)
			}
		}
		r, err := enc.Encode(ctx, sub, opts)
		if err != nil {
			return GOPResult{}, err
		}
		res.Bytes += r.Bytes
		res.Insts += r.Insts
		res.Bitstreams = append(res.Bitstreams, r.Bitstream)
		for i := range r.FrameStages {
			frameWork[i] += r.FrameStages[i].Total()
		}
	}

	// Advance the virtual timeline frame by frame and count misses
	// against each frame's arrival + latency budget.
	t := s.finishTick
	if ready > t {
		t = ready
	}
	for i := 0; i < end-start; i++ {
		t += frameWork[i] / instPerCycle
		if t > s.arrivalTickLocked(start+i)+uint64(s.spec.Deadline)*s.tpf {
			res.Misses++
		}
	}
	s.finishTick = t
	s.misses += res.Misses
	s.insts += res.Insts
	s.bytes += uint64(res.Bytes)
	obsMisses.Add(uint64(res.Misses))
	obsGOPs.Add(1)

	d := gopDigest(&res, res.Bitstreams)
	res.Digest = hex.EncodeToString(d[:])
	s.digests = append(s.digests, d)
	return res, nil
}

// operatingPointLocked resolves the scripted operating point for a GOP: the
// spec's initial point, overridden by the last switch at or before it.
func (s *Session) operatingPointLocked(gop int) (family string, crf, preset int) {
	family, crf, preset = s.spec.Family, s.spec.CRF, s.spec.Preset
	for _, sw := range s.spec.Switches {
		if sw.AtGOP > gop {
			break
		}
		family, crf, preset = sw.Family, sw.CRF, sw.Preset
	}
	return family, crf, preset
}

// arrivalTickLocked is the virtual tick at which frame i has fully arrived
// (one frame interval after its start).
func (s *Session) arrivalTickLocked(i int) uint64 { return uint64(i+1) * s.tpf }

// Stats snapshots the session's cumulative accounting.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	backlog := uint64(0)
	if arrived := s.arrivalTickLocked(s.fed - 1); s.fed > 0 && s.finishTick > arrived {
		backlog = s.finishTick - arrived
	}
	return Stats{
		Fed: s.fed, Encoded: s.encoded, Dropped: s.dropped,
		GOPs: s.gop, Misses: s.misses,
		Degrade: s.degrade, DegradeTotal: s.degradeTot,
		FinishTick: s.finishTick, BacklogTicks: backlog,
		SharedGOPs: s.sharedGOPs, Insts: s.insts, Bytes: s.bytes,
		Rungs: 1 + len(s.spec.Rungs), Done: s.done,
	}
}

// Resume returns the failover token for the session's current
// GOP-boundary state.
func (s *Session) ResumeToken() ResumeToken {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ResumeToken{
		StartFrame: s.encoded, GOP: s.gop,
		FinishTick: s.finishTick,
		Degrade:    s.degrade, DegradeTotal: s.degradeTot,
		Misses: s.misses, Dropped: s.dropped,
		SharedGOPs: s.sharedGOPs, Insts: s.insts, Bytes: s.bytes,
	}
}

// Digest folds the per-GOP digests this instance encoded, in GOP
// order. For a never-resumed session this is the whole-session digest.
func (s *Session) Digest() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return obs.FoldDigest(s.digests)
}

// ticksPerFrame converts a frame rate to virtual ticks per frame
// interval on the modeled machine's clock.
func ticksPerFrame(fps int) uint64 {
	return uint64(machine.Xeon().ClockHz) / uint64(fps)
}

// effortSteps returns how many presets separate the point from the
// family's fastest preset — the degrade policy's shedding headroom.
func effortSteps(family string, preset int) int {
	enc, err := encoders.New(encoders.Family(family))
	if err != nil {
		return 0
	}
	lo, hi, reversed := enc.PresetRange()
	if reversed { // x264/x265: lo is fastest
		return preset - lo
	}
	return hi - preset // AV1/VP9: hi is fastest
}

// shedPreset applies n degrade steps toward the family's fastest
// preset.
func shedPreset(family string, preset, n int) int {
	enc, err := encoders.New(encoders.Family(family))
	if err != nil {
		return preset
	}
	lo, hi, reversed := enc.PresetRange()
	if reversed {
		p := preset - n
		if p < lo {
			p = lo
		}
		return p
	}
	p := preset + n
	if p > hi {
		p = hi
	}
	return p
}

// gopDigest hashes everything observable about a GOP's output: the
// header (placement + effective operating point + drop flag) and every
// rung's bitstream bytes. Instruction counts are deliberately excluded
// so ladder sharing — which changes cost, never bytes — leaves digests
// untouched.
func gopDigest(res *GOPResult, bitstreams [][]byte) [32]byte {
	h := sha256.New()
	fmt.Fprintf(h, "gop %d start %d frames %d family %s preset %d crf %d dropped %v\n",
		res.Index, res.Start, res.Frames, res.Family, res.Preset, res.CRF, res.Dropped)
	for i, bs := range bitstreams {
		fmt.Fprintf(h, "rung %d bytes %d\n", i, len(bs))
		h.Write(bs)
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}
