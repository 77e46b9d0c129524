package harness

import (
	"fmt"

	"vcprof/internal/cbp"
	"vcprof/internal/encoders"
	"vcprof/internal/uarch/cache"
	"vcprof/internal/uarch/machine"
)

func init() {
	register(Experiment{ID: "ablation-partition", Title: "Partition-space ablation: AV1's 10 shapes vs a VP9-like 4", Plan: planAblationPartition})
	register(Experiment{ID: "ablation-predictor", Title: "Predictor-family ablation at equal budget (gshare/TAGE/perceptron)", Plan: planAblationPredictor})
	register(Experiment{ID: "ablation-cache", Title: "Cache-geometry ablation on an encoder access stream", Plan: planAblationCache})
	register(Experiment{ID: "ablation-motion", Title: "Motion-search ablation: hex vs diamond vs full", Plan: planAblationMotion})
	register(Experiment{ID: "ablation-prefetch", Title: "L2 prefetcher ablation on an encoder access stream", Plan: planAblationPrefetch})
}

// planAblationPartition isolates the paper's central claim — the AV1
// runtime gap is search-space driven — by comparing the SVT-AV1 model
// (10 partition shapes) with the VP9 model (4 shapes) at the same CRF
// point, where everything else in the toolkit is shared code.
func planAblationPartition(s Scale) (*Plan, error) {
	rows := []struct {
		fam    encoders.Family
		shapes string
	}{
		{encoders.SVTAV1, "10"},
		{encoders.VP9, "4"},
	}
	var cells []Cell
	for _, row := range rows {
		cells = append(cells, s.CountedCell(row.fam, "game1", 35, 4))
	}
	assemble := func(s Scale, res []CellResult) ([]*Table, error) {
		t := &Table{ID: "ablation-partition", Title: "search-space driven instruction gap",
			Header: []string{"encoder", "shapes", "insts_m", "kbps", "psnr_db"}}
		for i, row := range rows {
			r := res[i].Enc
			t.AddRow(string(row.fam), row.shapes, f2(float64(r.Insts)/1e6), f1(r.BitrateKbps), f2(r.PSNR))
		}
		return []*Table{t}, nil
	}
	return &Plan{Cells: cells, Assemble: assemble}, nil
}

func planAblationPredictor(s Scale) (*Plan, error) {
	cells := []Cell{s.WindowCell(encoders.SVTAV1, "game1", 35, 4)}
	assemble := func(s Scale, res []CellResult) ([]*Table, error) {
		tr, err := cbp.FromRecorder("game1", res[0].Rec)
		if err != nil {
			return nil, err
		}
		// Equal ~8KB budget across four families, plus a bimodal floor; the
		// loop-augmented TAGE (the TAGE-SC-L component of the paper's [33])
		// targets the fixed-trip-count kernel loops encoders are full of.
		names := []string{"bimodal-8KB", "gshare-2KB", "tage-8KB", "perceptron-8KB", "tage-l-8KB"}
		scores, err := cbp.Championship(names, []cbp.Trace{tr})
		if err != nil {
			return nil, err
		}
		t := &Table{ID: "ablation-predictor", Title: "predictor families on one encoder trace",
			Header: []string{"predictor", "missrate_pct", "mpki"}}
		for _, sc := range scores {
			t.AddRow(sc.Predictor, f2(sc.MissRate*100), f3(sc.MPKI))
		}
		return []*Table{t}, nil
	}
	return &Plan{Cells: cells, Assemble: assemble}, nil
}

// lineSink drives the prefetch ablation's hierarchies through their
// own Access, one access at a time and each touching only the line of
// its first byte: the prefetchers train on every demand access.
type lineSink func(addr uint64, store bool) int

func (f lineSink) Access(addr uint64, _ int, store bool) { f(addr, store) }

// planAblationCache replays one recorded window against the paper
// machine and two variants of it (a smaller LLC, a bigger L2). Its
// window cell is the same one ablation-predictor records.
func planAblationCache(s Scale) (*Plan, error) {
	cells := []Cell{s.WindowCell(encoders.SVTAV1, "game1", 35, 4)}
	assemble := func(s Scale, res []CellResult) ([]*Table, error) {
		rec := res[0].Rec
		xeon := machine.Xeon()
		smallLLC, bigL2 := xeon, xeon
		smallLLC.LLC.SizeBytes, smallLLC.LLC.Assoc, smallLLC.LLC.LatencyCyc = 8<<20, 16, 30
		bigL2.L2.SizeBytes, bigL2.L2.Assoc, bigL2.L2.LatencyCyc = 1<<20, 16, 14
		geos := []struct {
			name string
			m    machine.Machine
		}{
			{"xeon(32K/256K/30M)", xeon},
			{"small-llc(32K/256K/8M)", smallLLC},
			{"big-l2(32K/1M/30M)", bigL2},
		}
		t := &Table{ID: "ablation-cache", Title: "MPKI under alternative cache geometries",
			Header: []string{"geometry", "l1d_mpki", "l2_mpki", "llc_mpki"}}
		for _, g := range geos {
			h, err := cache.Acquire(g.m)
			if err != nil {
				return nil, err
			}
			rec.Ops.Play(nil, cache.Sink{Hierarchy: h})
			a, b, c := h.MPKI(uint64(rec.Ops.Len()))
			h.Release()
			t.AddRow(g.name, f2(a), f2(b), f3(c))
		}
		return []*Table{t}, nil
	}
	return &Plan{Cells: cells, Assemble: assemble}, nil
}

// planAblationPrefetch replays one window's memory stream through the
// hierarchy with no prefetcher, a next-line prefetcher and a stride
// prefetcher: the encoder's row scans are stride-friendly, so both
// schemes recover streaming misses.
func planAblationPrefetch(s Scale) (*Plan, error) {
	cells := []Cell{s.WindowCell(encoders.SVTAV1, "game1", 55, 6)}
	assemble := func(s Scale, res []CellResult) ([]*Table, error) {
		rec := res[0].Rec
		type accessor interface {
			Access(addr uint64, store bool) int
			MPKI(insts uint64) (float64, float64, float64)
		}
		plain, err := cache.Acquire(machine.Xeon())
		if err != nil {
			return nil, err
		}
		defer plain.Release()
		nl, err := cache.NewPrefetchHierarchy(cache.NextLinePrefetcher{})
		if err != nil {
			return nil, err
		}
		defer nl.Release()
		st, err := cache.NewPrefetchHierarchy(&cache.StridePrefetcher{})
		if err != nil {
			return nil, err
		}
		defer st.Release()
		t := &Table{ID: "ablation-prefetch", Title: "L2 prefetching on the encoder's access stream",
			Header: []string{"prefetcher", "l1d_mpki", "l2_mpki", "llc_mpki"}}
		for _, row := range []struct {
			name string
			h    accessor
		}{{"none", plain}, {"next-line", nl}, {"stride", st}} {
			rec.Ops.Play(nil, lineSink(row.h.Access))
			a, b, c := row.h.MPKI(uint64(rec.Ops.Len()))
			t.AddRow(row.name, f2(a), f2(b), f3(c))
		}
		return []*Table{t}, nil
	}
	return &Plan{Cells: cells, Assemble: assemble}, nil
}

func planAblationMotion(s Scale) (*Plan, error) {
	// Preset position selects the search algorithm in every family:
	// exercise the SVT-AV1 model across the presets whose toolsets use
	// hex (8), diamond (4) and full (0) search.
	rows := []struct {
		preset int
		search string
	}{{8, "hex"}, {4, "diamond"}, {0, "full"}}
	var cells []Cell
	for _, row := range rows {
		cells = append(cells, s.CountedCell(encoders.SVTAV1, "game1", 35, row.preset))
	}
	assemble := func(s Scale, res []CellResult) ([]*Table, error) {
		t := &Table{ID: "ablation-motion", Title: "motion search strategy cost/quality (SVT-AV1 presets 8/4/0)",
			Header: []string{"preset", "search", "insts_m", "psnr_db", "kbps"}}
		for i, row := range rows {
			r := res[i].Enc
			t.AddRow(fmt.Sprintf("%d", row.preset), row.search,
				f2(float64(r.Insts)/1e6), f2(r.PSNR), f1(r.BitrateKbps))
		}
		return []*Table{t}, nil
	}
	return &Plan{Cells: cells, Assemble: assemble}, nil
}
