// Package service wraps the harness measurement engine in a long-lived
// HTTP daemon: a bounded priority job queue with admission control, a
// sharded worker pool that reuses the engine's process-wide memo cache,
// and a content-addressed disk store so results survive restarts and
// repeat traffic is served without recomputation. cmd/vcprofd is the
// server binary; cmd/vcload is the closed-loop load generator that
// turns the service itself into a measurable workload.
//
// Everything the service computes is deterministic: a job's result
// bytes depend only on its canonical spec, never on scheduling, worker
// count, or whether the bytes came from memory, disk, or a fresh
// computation. That is the property the lifecycle tests and vcload's
// cross-pass digest comparison pin.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"vcprof/internal/encoders"
	"vcprof/internal/harness"
	"vcprof/internal/video"
)

// Job kinds.
const (
	KindEncode     = "encode"     // one counted encode at an operating point
	KindExperiment = "experiment" // one registered paper experiment
)

// Priority classes. Lower runs first; the queue orders by (priority,
// arrival).
const (
	PriorityInteractive = 0
	PriorityDefault     = 1
	PriorityBatch       = 2
)

// JobSpec is the wire form of one job request. The zero value of every
// optional field is replaced by its default in Normalize, so two specs
// that describe the same work canonicalize to the same bytes and
// therefore the same key — the content address under which the result
// is queued, deduplicated, and stored.
type JobSpec struct {
	Kind     string `json:"kind"`
	Priority int    `json:"priority"`
	// TimeoutMS bounds the job's execution (0 = server default).
	TimeoutMS int64 `json:"timeout_ms"`

	// Encode jobs: the operating point.
	Family   string `json:"family,omitempty"`
	Clip     string `json:"clip,omitempty"`
	Frames   int    `json:"frames,omitempty"`
	ScaleDiv int    `json:"scale_div,omitempty"`
	CRF      int    `json:"crf,omitempty"`
	Preset   int    `json:"preset,omitempty"`
	Threads  int    `json:"threads,omitempty"`

	// Experiment jobs: a registered experiment ID ("fig4", "table2")
	// and the scale preset to run it at.
	Experiment string `json:"experiment,omitempty"`
	Quick      bool   `json:"quick,omitempty"`
}

// Normalize fills defaults in place. It must run before Validate and
// Key so equivalent requests share one canonical form.
func (s *JobSpec) Normalize() {
	switch s.Kind {
	case KindEncode:
		if s.Frames == 0 {
			s.Frames = 4
		}
		if s.ScaleDiv == 0 {
			s.ScaleDiv = 16
		}
		if s.Threads == 0 {
			s.Threads = 1
		}
		s.Experiment = ""
		s.Quick = false
	case KindExperiment:
		s.Family = ""
		s.Clip = ""
		s.Frames, s.ScaleDiv, s.CRF, s.Preset, s.Threads = 0, 0, 0, 0, 0
	}
	if s.Priority < PriorityInteractive {
		s.Priority = PriorityInteractive
	}
	if s.Priority > PriorityBatch {
		s.Priority = PriorityBatch
	}
	if s.TimeoutMS < 0 {
		s.TimeoutMS = 0
	}
}

// Validate checks a normalized spec against the encoder catalog, the
// clip catalog and the experiment registry.
func (s *JobSpec) Validate() error {
	switch s.Kind {
	case KindEncode:
		enc, err := encoders.New(encoders.Family(s.Family))
		if err != nil {
			return err
		}
		if _, err := video.LookupClip(s.Clip); err != nil {
			return err
		}
		if s.Frames < 1 || s.Frames > 64 {
			return fmt.Errorf("service: frames %d out of range [1, 64]", s.Frames)
		}
		if s.ScaleDiv < 1 || s.ScaleDiv > 64 {
			return fmt.Errorf("service: scale_div %d out of range [1, 64]", s.ScaleDiv)
		}
		if lo, hi := enc.CRFRange(); s.CRF < lo || s.CRF > hi {
			return fmt.Errorf("service: %s crf %d out of range [%d, %d]", s.Family, s.CRF, lo, hi)
		}
		if lo, hi, _ := enc.PresetRange(); s.Preset < lo || s.Preset > hi {
			return fmt.Errorf("service: %s preset %d out of range [%d, %d]", s.Family, s.Preset, lo, hi)
		}
		// 0 threads is the 1-thread default (encoders.Options.Threads);
		// Normalize folds it, and direct Validate callers accept it too.
		if s.Threads < 0 || s.Threads > 16 {
			return fmt.Errorf("service: threads %d out of range [0, 16]", s.Threads)
		}
	case KindExperiment:
		if _, err := harness.Lookup(s.Experiment); err != nil {
			return err
		}
	default:
		return fmt.Errorf("service: unknown job kind %q (want %q or %q)", s.Kind, KindEncode, KindExperiment)
	}
	return nil
}

// Canonical returns the canonical byte form of a normalized spec: JSON
// with every semantic field explicit and in fixed struct order. The
// priority and timeout are scheduling hints, not part of the work, so
// they are excluded — an interactive and a batch request for the same
// measurement share one result.
func (s *JobSpec) Canonical() []byte {
	c := *s
	c.Priority = 0
	c.TimeoutMS = 0
	b, err := json.Marshal(&c)
	if err != nil {
		// A JobSpec contains only marshalable scalar fields.
		panic("service: canonical marshal: " + err.Error())
	}
	return b
}

// Key returns the content address of the spec: the hex SHA-256 of its
// canonical form. Keys double as job IDs, which is what makes duplicate
// submissions converge on one computation and one stored object.
func (s *JobSpec) Key() string {
	sum := sha256.Sum256(s.Canonical())
	return hex.EncodeToString(sum[:])
}

// Experiment cost constants: a registered experiment runs a whole cell
// grid, so either scale outranks any single encode the admission table
// can produce (the largest encode spec costs well under 2³²).
const (
	expQuickCost uint64 = 1 << 32
	expFullCost  uint64 = 1 << 36
)

// EstimatedCost is the admission-control cost estimate of a normalized
// spec: the static (resolution × frames × family × effort) table from
// encoders.CostHint for encode jobs, and large scale-ranked constants
// for experiment jobs. It orders the queue inside a priority class and
// buckets the queue-wait histograms; it is derived, never serialized,
// so it never touches the content address.
func (s *JobSpec) EstimatedCost() uint64 {
	switch s.Kind {
	case KindEncode:
		meta, err := video.LookupClip(s.Clip)
		if err != nil {
			return 1
		}
		m := meta.Scale(s.ScaleDiv)
		return encoders.CostHint(encoders.Family(s.Family), m.Width*m.Height, s.Frames, s.CRF, s.Preset)
	case KindExperiment:
		if s.Quick {
			return expQuickCost
		}
		return expFullCost
	}
	return 1
}

// costClass buckets job costs for the queue-wait-by-size histograms,
// which is what makes "do light jobs still wait behind heavy ones?"
// answerable from /metrics alone.
type costClass uint8

const (
	classSmall costClass = iota
	classMedium
	classLarge
)

// Class thresholds, in CostHint units: a default-scale x264 encode
// lands small, the slower families land medium, 4×-resolution or
// long-frame encodes and all experiments land large.
const (
	classMediumMin = 1 << 19
	classLargeMin  = 1 << 23
)

func classOf(cost uint64) costClass {
	switch {
	case cost < classMediumMin:
		return classSmall
	case cost < classLargeMin:
		return classMedium
	default:
		return classLarge
	}
}

// cell lowers an encode spec onto the harness cell grid.
func (s *JobSpec) cell() harness.Cell {
	return harness.Cell{
		Kind:    harness.CellCounted,
		Family:  encoders.Family(s.Family),
		Clip:    s.Clip,
		Frames:  s.Frames,
		Div:     s.ScaleDiv,
		CRF:     s.CRF,
		Preset:  s.Preset,
		Threads: s.Threads,
	}
}
