// Command perfbench is vtrain's repository benchmark. It drives the
// simulator's public drivers on one seeded workload, checks every output
// against pinned digests or cold-pass baselines, and prints host-time
// metrics (the simulator's own cost, never simulated time). With -trace 1
// it instead runs a serial replica of the workload built from public
// calls, times each call into a layer, and prints per-layer metrics.
//
// Run it from the repository root, through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload dse-cold --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run collects one invocation's metrics and failures. Notes are printed
// beside the metrics (sample counts, hit shares) but are not metrics.
type run struct {
	res   result
	notes []string
	// spans is the traced run's trace, written out when the run ends.
	spans []span
}

func newRun() *run { return &run{res: result{Metrics: make(map[string]metric)}} }

func (r *run) set(name string, v float64, unit string) { r.res.Metrics[name] = metric{v, unit} }

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// op records one attempted operation; a non-nil err counts it as failed.
func (r *run) op(err error) {
	r.res.Attempted++
	if err != nil {
		r.res.Failed++
		r.note("FAILED: %v", err)
	}
}

var workloads = []string{"dse-cold", "cluster-ideal", "cluster-contended", "server-mixed"}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced replica and prints per-layer metrics")
	flag.Parse()
	if err := checkout(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	r := newRun()
	printHeader(*workload, *seed, *seconds, *trace)
	var err error
	specs := sweepSpecs()
	switch {
	case specs[*workload] != nil && *trace == 0:
		err = sweepMeasure(specs[*workload], *seconds, r)
	case specs[*workload] != nil:
		err = sweepTrace(specs[*workload], *seconds, r)
	case *workload == "server-mixed" && *trace == 0:
		err = serverMeasure(*seed, *seconds, r)
	case *workload == "server-mixed":
		err = serverTrace(*seed, *seconds, r)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if r.spans != nil {
		path := filepath.Join(".bench_build", "spans", *workload+".jsonl")
		if err := writeSpans(path, r.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		r.note("spans written to %s", path)
	}
	r.res.Correct = r.res.Failed == 0 && r.res.Attempted > 0
	errPct := 100 * float64(r.res.Failed) / float64(max(r.res.Attempted, 1))
	r.note("error_pct %.4f (%d failed of %d attempted)", errPct, r.res.Failed, r.res.Attempted)
	if *trace == 0 {
		r.set("ok_pct", 100-errPct, "%")
	}
	if err := checkDeclared(r.res.Metrics, *trace != 0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	names := make([]string, 0, len(r.res.Metrics))
	for n := range r.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.res.Metrics[n]
		fmt.Printf("%-42s %16.6f %s\n", n, m.Value, m.Unit)
	}
	out, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// checkout verifies the working directory is a repository checkout: the
// benchmark measures the simulator built from the sources beside it.
func checkout() error {
	data, err := os.ReadFile("go.mod")
	if err != nil || !bytes.HasPrefix(data, []byte("module vtrain\n")) {
		return fmt.Errorf("run from the root of a vtrain checkout (no vtrain go.mod in the working directory)")
	}
	return nil
}

// checkDeclared holds the metrics a run computed to the ones BENCHMARK.json
// declares for its mode, names and units both.
func checkDeclared(got map[string]metric, traced bool) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	want := decl.EndToEnd
	if traced {
		want = decl.PerLayer
	}
	for _, m := range want {
		if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
			return fmt.Errorf("metric %s (%s) declared in BENCHMARK.json but not reported with that unit", m.Name, m.Unit)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("reported %d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
	return nil
}

// printHeader prints the environment the numbers were measured in, so runs
// from different machines or revisions are never compared by accident.
func printHeader(workload string, seed uint64, seconds float64, trace int) {
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%d\n", workload, seed, seconds, trace)
	fmt.Printf("# go=%s GOMAXPROCS=%d nproc=%d cpu=%q\n", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())
	fmt.Printf("# revision=%s sources=%s\n", revision(), sourceDigest())
}

// cpuModel reads the processor name from the kernel's cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// revision is the checkout's git revision when it is a git work tree, else
// "none" (run.sh builds without VCS stamping, which would search the
// directories above the checkout).
func revision() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			rev := strings.TrimSpace(string(out))
			if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "none"
}

// sourceDigest hashes the checkout's Go sources and module file, which
// identifies the code under test even where there is no git revision.
func sourceDigest() string {
	var files []string
	filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	var buf bytes.Buffer
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(&buf, "%s\x00%d\x00", f, len(data))
		buf.Write(data)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:8])
}

// elapsedSince is a float-seconds convenience for run loops.
func elapsedSince(t time.Time) float64 { return time.Since(t).Seconds() }
