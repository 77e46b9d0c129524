package harness

import (
	"vcprof/internal/encoders"
	"vcprof/internal/trace"
)

func init() {
	register(Experiment{ID: "table2", Title: "Instruction mix per video, SVT-AV1 preset 8 CRF 63", Plan: planTable2})
	register(Experiment{ID: "fig3", Title: "Op-mix per video across the CRF sweep (SVT-AV1)", Plan: planFig3})
}

func mixRow(prefix []string, insts uint64, m *trace.Mix) []string {
	return append(prefix,
		sci(float64(insts)),
		f1(m.Percent(trace.OpBranch)),
		f1(m.Percent(trace.OpLoad)),
		f1(m.Percent(trace.OpStore)),
		f1(m.Percent(trace.OpAVX)),
		f1(m.Percent(trace.OpSSE)),
		f1(m.Percent(trace.OpOther)),
	)
}

var mixHeader = []string{"insts", "branch%", "load%", "store%", "avx%", "sse%", "other%"}

func planTable2(s Scale) (*Plan, error) {
	var cells []Cell
	for _, name := range s.clipNames() {
		cells = append(cells, s.CountedCell(encoders.SVTAV1, name, 63, 8))
	}
	assemble := func(s Scale, res []CellResult) ([]*Table, error) {
		t := &Table{ID: "table2", Title: "instruction mix, SVT-AV1 preset 8, CRF 63",
			Header: append([]string{"video"}, mixHeader...)}
		for i, name := range s.clipNames() {
			r := res[i].Enc
			mix := r.Mix
			t.AddRow(mixRow([]string{name}, r.Insts, &mix)...)
		}
		return []*Table{t}, nil
	}
	return &Plan{Cells: cells, Assemble: assemble}, nil
}

func planFig3(s Scale) (*Plan, error) {
	var cells []Cell
	idx := map[clipCRF]int{}
	for _, name := range s.clipNames() {
		for _, crf := range s.CRFs {
			idx[clipCRF{name, crf}] = len(cells)
			cells = append(cells, s.CountedCell(encoders.SVTAV1, name, crf, 4))
		}
	}
	assemble := func(s Scale, res []CellResult) ([]*Table, error) {
		t := &Table{ID: "fig3", Title: "op-mix vs CRF (SVT-AV1 preset 4)",
			Header: append([]string{"video", "crf"}, mixHeader...)}
		for _, name := range s.clipNames() {
			for _, crf := range s.CRFs {
				r := res[idx[clipCRF{name, crf}]].Enc
				mix := r.Mix
				t.AddRow(mixRow([]string{name, d(uint64(crf))}, r.Insts, &mix)...)
			}
		}
		return []*Table{t}, nil
	}
	return &Plan{Cells: cells, Assemble: assemble}, nil
}
