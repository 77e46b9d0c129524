package core

import (
	"testing"

	"vcprof/internal/encoders"
	"vcprof/internal/harness"
)

func quickLab(t *testing.T) *Lab {
	t.Helper()
	s := harness.QuickScale()
	s.Clips = []string{"game1"}
	s.Frames = 3
	lab, err := NewLab(WithScale(s))
	if err != nil {
		t.Fatal(err)
	}
	return lab
}

func TestNewLabOptions(t *testing.T) {
	if _, err := NewLab(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewLab(WithQuickScale()); err != nil {
		t.Fatal(err)
	}
	bad := harness.Scale{}
	if _, err := NewLab(WithScale(bad)); err == nil {
		t.Error("accepted invalid scale")
	}
}

func TestLabEncode(t *testing.T) {
	lab := quickLab(t)
	res, err := lab.Encode(SVTAV1, "game1", 40, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes == 0 || res.PSNR < 20 || res.Insts == 0 {
		t.Errorf("implausible encode result: %+v", res)
	}
	if _, err := lab.Encode("h262", "game1", 40, 6, 1); err == nil {
		t.Error("accepted unknown family")
	}
	if _, err := lab.Encode(SVTAV1, "nosuchclip", 40, 6, 1); err == nil {
		t.Error("accepted unknown clip")
	}
}

func TestLabCharacterize(t *testing.T) {
	lab := quickLab(t)
	st, err := lab.Characterize(SVTAV1, "game1", 40, 6)
	if err != nil {
		t.Fatal(err)
	}
	if st.IPC <= 0 || st.IPC > 4 {
		t.Errorf("IPC = %v", st.IPC)
	}
	if err := st.TopDown.Validate(); err != nil {
		t.Error(err)
	}
}

func TestLabProfileAndWindow(t *testing.T) {
	lab := quickLab(t)
	prof, err := lab.Profile(SVTAV1, "game1", 50, 8)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Hottest() == "" {
		t.Error("empty profile")
	}
	rec, err := lab.RecordWindow(SVTAV1, "game1", 50, 8)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Ops.Len() == 0 {
		t.Fatal("empty window")
	}
	pres, err := lab.ReplayPipeline(rec)
	if err != nil {
		t.Fatal(err)
	}
	if pres.IPC <= 0 || pres.IPC > 4 {
		t.Errorf("replay IPC = %v", pres.IPC)
	}
	if _, err := lab.ReplayPipeline(nil); err == nil {
		t.Error("accepted nil recorder")
	}
}

func TestLabBranchChampionship(t *testing.T) {
	lab := quickLab(t)
	scores, err := lab.BranchChampionship("game1", 50, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 4 {
		t.Fatalf("%d scores, want 4 (paper set)", len(scores))
	}
	for _, s := range scores {
		if s.MPKI <= 0 {
			t.Errorf("%s: zero MPKI", s.Predictor)
		}
	}
}

func TestLabSweeps(t *testing.T) {
	lab := quickLab(t)
	pts, err := lab.CRFSweep(SVTAV1, "game1", 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(lab.Scale().CRFs) {
		t.Fatalf("%d sweep points, want %d", len(pts), len(lab.Scale().CRFs))
	}
	if pts[0].Stat.Instructions <= pts[len(pts)-1].Stat.Instructions {
		t.Error("instructions did not fall across the CRF sweep")
	}
	tp, err := lab.ThreadSweep(SVTAV1, "game1", 50, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(tp) != len(lab.Scale().Threads) {
		t.Fatalf("%d thread points", len(tp))
	}
	if tp[len(tp)-1].Speedup < 2 {
		t.Errorf("SVT-AV1 simulated speedup at %d threads = %v, want >= 2",
			tp[len(tp)-1].Threads, tp[len(tp)-1].Speedup)
	}
}

func TestLabExperimentDispatch(t *testing.T) {
	lab := quickLab(t)
	tabs, err := lab.Experiment("table1")
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 1 || len(tabs[0].Rows) != 15 {
		t.Error("table1 dispatch wrong")
	}
	if _, err := lab.Experiment("figX"); err == nil {
		t.Error("accepted unknown experiment")
	}
	if len(lab.Experiments()) < 20 {
		t.Errorf("only %d experiments registered", len(lab.Experiments()))
	}
}

func TestLabEncodeWithAndDecode(t *testing.T) {
	lab := quickLab(t)
	res, err := lab.EncodeWith(SVTAV1, "game1", encodersOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bitstream) == 0 {
		t.Fatal("no bitstream kept")
	}
	frames, err := lab.Decode(res.Bitstream)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != len(res.Recon) {
		t.Fatalf("decoded %d frames, want %d", len(frames), len(res.Recon))
	}
	if res.SSIM <= 0 || res.SSIM > 1 {
		t.Errorf("SSIM = %v out of range", res.SSIM)
	}
	if _, err := lab.Decode([]byte("junk")); err == nil {
		t.Error("decoded junk")
	}
}

// encodersOptions builds the options used by TestLabEncodeWithAndDecode
// (ABR + scene cut + kept bitstream).
func encodersOptions() encoders.Options {
	return encoders.Options{TargetKbps: 300, Preset: 6, SceneCut: true, KeepBitstream: true}
}
