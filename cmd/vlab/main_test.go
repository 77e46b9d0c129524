package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"vcprof/internal/harness"
	"vcprof/internal/uarch/bpred"
	"vcprof/internal/video"
)

// vlab runs one invocation in the test's working directory and returns
// its exit status, stdout and stderr.
func vlab(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errs strings.Builder
	code := run(context.Background(), args, &out, &errs)
	return code, out.String(), errs.String()
}

// ok runs an invocation that must succeed and returns its stdout.
func ok(t *testing.T, args ...string) string {
	t.Helper()
	code, out, errs := vlab(t, args...)
	if code != 0 {
		t.Fatalf("vlab %s: exit %d\n%s", strings.Join(args, " "), code, errs)
	}
	return out
}

// scan parses the rest of out's line that starts with label.
func scan(t *testing.T, out, label, format string, dst ...any) {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if rest, found := strings.CutPrefix(line, label); found {
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), format, dst...); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			return
		}
	}
	t.Fatalf("no %q line in:\n%s", label, out)
}

// encodeArgs is a small procedural encode of game1 at one point.
func encodeArgs(crf, preset int, extra ...string) []string {
	return append([]string{"encode", "-clip", "game1", "-frames", "3", "-scale", "16",
		"-crf", fmt.Sprint(crf), "-preset", fmt.Sprint(preset)}, extra...)
}

func TestLabVerbs(t *testing.T) {
	code, _, errs := vlab(t)
	if code != 2 {
		t.Errorf("no verb: exit %d, want 2", code)
	}
	for _, v := range verbs {
		if !strings.Contains(errs, "  "+v.name+" ") {
			t.Errorf("usage does not list %q:\n%s", v.name, errs)
		}
	}
	for _, args := range [][]string{
		{"nosuch"},
		{"gen"},
		{"gen", "a.y4m", "b.y4m"},
		{"encode", "stray"},
		{"decode", "-bogus", "x.vcbs"},
		{"cbp"},
	} {
		if code, _, _ := vlab(t, args...); code != 2 {
			t.Errorf("vlab %s: exit %d, want 2", strings.Join(args, " "), code)
		}
	}
	if code, _, errs := vlab(t, "uarch", "-h"); code != 0 || !strings.Contains(errs, "-predictor") {
		t.Errorf("uarch -h: exit %d\n%s", code, errs)
	}
	if out := ok(t, "encode", "-list"); strings.Count(out, "\n") != len(video.Vbench()) {
		t.Errorf("encode -list printed %d lines, want %d", strings.Count(out, "\n"), len(video.Vbench()))
	}
}

func TestLabEncode(t *testing.T) {
	out := ok(t, encodeArgs(40, 6)...)
	var (
		bytes, insts uint64
		psnr         float64
	)
	scan(t, out, "bitstream", "%d bytes", &bytes)
	scan(t, out, "instructions", "%d", &insts)
	scan(t, out, "quality", "%f dB PSNR", &psnr)
	if bytes == 0 || psnr < 20 || insts == 0 {
		t.Errorf("implausible encode: %d bytes, %.2f dB, %d instructions\n%s", bytes, psnr, insts, out)
	}
	for _, bad := range [][]string{{"-encoder", "h262"}, {"-clip", "nosuchclip"}} {
		code, _, errs := vlab(t, encodeArgs(40, 6, bad...)...)
		if code != 1 || !strings.HasPrefix(errs, "vlab encode: ") {
			t.Errorf("encode %v: exit %d, stderr %q; want 1 and the verb's error", bad, code, errs)
		}
	}
}

func TestLabProfileAndWindow(t *testing.T) {
	t.Chdir(t.TempDir())
	out := ok(t, encodeArgs(50, 8, "-profile", "-optrace", "w.vctw")...)
	if !strings.Contains(out, "\nfunction ") || !strings.Contains(out, "motion.SAD") {
		t.Errorf("no flat profile:\n%s", out)
	}
	var ops uint64
	scan(t, out, "optrace", "%d ops", &ops)
	if ops == 0 {
		t.Fatal("empty window")
	}
	var wide, narrow float64
	scan(t, ok(t, "uarch", "w.vctw"), "IPC", "%f", &wide)
	scan(t, ok(t, "uarch", "-width", "2", "w.vctw"), "IPC", "%f", &narrow)
	if wide <= 0 || wide > 4 || narrow > 2 || narrow > wide {
		t.Errorf("replay IPC %v at width 4, %v at width 2", wide, narrow)
	}
	if code, _, _ := vlab(t, "uarch", "nosuch.vctw"); code != 1 {
		t.Errorf("uarch on a missing file: exit %d, want 1", code)
	}
}

func TestLabBranchChampionship(t *testing.T) {
	t.Chdir(t.TempDir())
	ok(t, encodeArgs(50, 8, "-optrace", "w.vctw")...)
	rows := strings.Split(strings.TrimSpace(ok(t, "cbp", "w.vctw")), "\n")
	if len(rows) != 2 {
		t.Fatalf("cbp table has %d rows, want header + one trace:\n%s", len(rows), strings.Join(rows, "\n"))
	}
	head, row := strings.Fields(rows[0]), strings.Fields(rows[1])
	if strings.Join(head[1:], ",") != strings.Join(bpred.PaperSet(), ",") || row[0] != "w" || len(row) != len(head) {
		t.Fatalf("cbp table is not the paper set on trace w:\n%s", strings.Join(rows, "\n"))
	}
	for i, v := range row[1:] {
		var mpki float64
		if _, err := fmt.Sscanf(v, "%f", &mpki); err != nil || mpki <= 0 {
			t.Errorf("%s: MPKI %q", head[i+1], v)
		}
	}
	if code, _, _ := vlab(t, "cbp", "-metric", "bogus", "w.vctw"); code != 1 {
		t.Errorf("cbp -metric bogus: exit %d, want 1", code)
	}
}

// TestLabEncodeWithAndDecode: a generated clip with a scene cut,
// encoded under ABR with scene-cut keyframes, decodes to every frame.
func TestLabEncodeWithAndDecode(t *testing.T) {
	t.Chdir(t.TempDir())
	ok(t, "gen", "-frames", "6", "-scale", "16", "-cut", "3", "cut.y4m")
	out := ok(t, "encode", "-y4m", "cut.y4m", "-kbps", "300", "-preset", "6", "-scenecut", "-bitstream", "cut.vcbs")
	dec := ok(t, "decode", "cut.vcbs")
	var wrote, read, frames int
	scan(t, out, "container", "%d bytes", &wrote)
	scan(t, dec, "container", "%d bytes", &read)
	scan(t, dec, "frames", "%d", &frames)
	if wrote == 0 || read != wrote || frames != 6 || strings.Count(dec, "crc32") != 6 {
		t.Errorf("wrote %d bytes, decoded %d bytes into %d frames; want 6 frames:\n%s", wrote, read, frames, dec)
	}
	if err := os.WriteFile("junk.vcbs", []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := vlab(t, "decode", "junk.vcbs"); code != 1 {
		t.Errorf("decoded junk: exit %d, want 1", code)
	}
}

var update = flag.Bool("update", false, "rewrite testdata/transcript.txt from this tree")

// TestTranscript replays testdata/transcript.txt in one temp dir: each
// "$ vlab ..." block must print what is under it (the host-time "wall
// time" line aside), and each "$ sha256 ..." block pins the bytes of the
// files the verbs wrote. The transcript was recorded from the five
// binaries the verbs replaced, so a difference is a change in what a
// verb computes or prints, not a move.
func TestTranscript(t *testing.T) {
	path, err := filepath.Abs("testdata/transcript.txt")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(t.TempDir())
	wallTime := regexp.MustCompile(`(?m)^wall time .*$`)
	var got strings.Builder
	for _, block := range strings.SplitAfter(string(want), "\n$ ") {
		cmd, _, _ := strings.Cut(strings.TrimPrefix(block, "$ "), "\n")
		fmt.Fprintf(&got, "$ %s\n", cmd)
		switch args := strings.Fields(cmd); args[0] {
		case "vlab":
			got.WriteString(wallTime.ReplaceAllString(ok(t, args[1:]...), "wall time    (host time)"))
		case "sha256":
			for _, name := range args[1:] {
				b, err := os.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&got, "%x  %s\n", sha256.Sum256(b), name)
			}
		default:
			t.Fatalf("transcript command %q is neither vlab nor sha256", cmd)
		}
	}
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if got.String() != string(want) {
		t.Errorf("transcript differs (go test ./cmd/vlab -run Transcript -update rewrites it):\n%s", got.String())
	}
}

// TestReadmeRecipes runs every vlab line of README's lab recipes as
// written and checks that every repro line names registered experiments,
// so the recipes cannot drift from the tools.
func TestReadmeRecipes(t *testing.T) {
	f, err := os.Open("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var (
		lines           [][]string
		inSection, inSh bool
		vlabs, ids      int
	)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "## "):
			inSection = line == "## Lab recipes"
		case inSection && strings.HasPrefix(line, "```"):
			inSh = !inSh && line == "```sh"
		case inSection && inSh:
			if i := strings.Index(line, "#"); i >= 0 {
				line = line[:i]
			}
			if fields := strings.Fields(line); len(fields) > 0 {
				lines = append(lines, fields)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	t.Chdir(t.TempDir())
	for _, fields := range lines {
		if len(fields) < 4 || fields[0] != "go" || fields[1] != "run" {
			t.Errorf("recipe %q is not a go run line", strings.Join(fields, " "))
			continue
		}
		switch fields[2] {
		case "./cmd/vlab":
			ok(t, fields[3:]...)
			vlabs++
		case "./cmd/repro":
			for _, id := range fields[3:] {
				if !strings.HasPrefix(id, "-") {
					if _, err := harness.Lookup(id); err != nil {
						t.Errorf("recipe %q: %v", strings.Join(fields, " "), err)
					}
					ids++
				}
			}
		default:
			t.Errorf("recipe %q runs neither vlab nor repro", strings.Join(fields, " "))
		}
	}
	if vlabs < 5 || ids < 2 {
		t.Errorf("README's lab recipes hold %d vlab lines and %d experiments", vlabs, ids)
	}
}
