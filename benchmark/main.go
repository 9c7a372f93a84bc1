// Command benchmark is the repository's benchmark: four workloads over
// the advisor and the store it advises, end-to-end metrics with bounds
// and per-layer metrics from a separate traced run. BENCHMARK.json at
// the repository root declares the same workloads and metrics; README.md
// in this directory says why each exists and how the numbers relate.
//
//	go run . -workload serve-point -seed 1 -seconds 20 -trace 0
//
// The inputs derive from -seed alone. The system under test is driven
// only through public functions: legodb.Engine and Store, the server's
// HTTP handler behind a loopback listener, and — for layer timings — the
// exported functions of the internal packages. The last line of standard
// output is one JSON object {correct, attempted, failed, metrics}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// sizes fixes how much a run generates and how often its probes repeat.
// Every measured run uses fullSize, so the counters taken over the
// probes repeat exactly for a given seed; the smoke test shrinks them.
type sizes struct {
	setupRounds int // set-ups per run; the median is reported
	docs        int // documents per tenant
	shows       int // imdb.Generate scale of one document
	largeMul    int // the super-linear shred probe uses one document this many times larger
	pool        int // distinct point requests sampled per run
	replays     int // point requests replayed through every layer
	mutations   int // direct inserts, then deletes
	repeats     int // snapshot, codec and publish passes, and probe bundles
}

var fullSize = sizes{setupRounds: 3, docs: 16, shows: 50, largeMul: 8, pool: 2048, replays: 256, mutations: 200, repeats: 5}

// metric describes one reported number. The table below is the single
// list the program, BENCHMARK.json and the smoke test agree on.
type metric struct {
	name, unit string
	perLayer   bool
}

var metricTable = []metric{
	// End to end; every workload reports all four (README.md says what
	// each means on each workload).
	{name: "setup_s", unit: "s"},
	{name: "ops_per_s", unit: "1/s"},
	{name: "p50_ms", unit: "ms"},
	{name: "second_p50_ms", unit: "ms"},

	// Advisor layers.
	{"transform.candidates_us", "us", true},
	{"transform.apply_us", "us", true},
	{"xstats.annotate_us", "us", true},
	{"relational.map_us", "us", true},
	{"xquery.translate_us", "us", true},
	{"optimizer.querycost_us", "us", true},
	{"plan.space_querycost_us", "us", true},
	{"plan.block_sharing_ratio", "ratio", true},
	{"core.evals_n", "count", true},
	{"core.translations_n", "count", true},
	{"core.query_cache_hit_ratio", "ratio", true},
	{"core.cost_cache_hit_ratio", "ratio", true},
	{"core.eval_us", "us", true},
	{"core.overhead_share", "ratio", true},
	{"core.warm_advise_ms", "ms", true},
	{"core.advise_cost_ratio", "ratio", true},
	{"core.winner_fingerprint_match_n", "count", true},
	// Load path.
	{"xmltree.parse_mb_per_s", "MB/s", true},
	{"shred.shred_mb_per_s", "MB/s", true},
	{"shred.alloc_bytes_per_xml_byte", "ratio", true},
	{"shred.large_doc_ms", "ms", true},
	{"shred.large_doc_alloc_bytes_per_xml_byte", "ratio", true},
	{"shred.publish_ms", "ms", true},
	{"client.load_mb_per_s", "MB/s", true},
	// Request path, replayed on the twin.
	{"xquery.parse_us", "us", true},
	{"xquery.translate_req_us", "us", true},
	{"engine.execute_us", "us", true},
	{"engine.stringify_us", "us", true},
	{"engine.tuples_read_per_row_out", "ratio", true},
	{"engine.probes_n", "count", true},
	{"engine.bytes_read", "bytes", true},
	{"legodb.prepare_us", "us", true},
	{"legodb.run_overhead_us", "us", true},
	{"server.http_overhead_us", "us", true},
	{"server.response_bytes", "bytes", true},
	{"server.shed_n", "count", true},
	{"server.timeouts_n", "count", true},
	// Writes and snapshots.
	{"legodb.insert_us", "us", true},
	{"legodb.delete_us", "us", true},
	{"legodb.save_ms", "ms", true},
	{"legodb.open_ms", "ms", true},
	{"colfile.encode_mb_per_s", "MB/s", true},
	{"colfile.decode_mb_per_s", "MB/s", true},
	{"colfile.bytes_per_row", "bytes", true},
	{"colfile.stored_bytes_per_xml_byte", "ratio", true},
	{"fsio.write_atomic_ms", "ms", true},
	// The load generator about itself, and the cost of tracing.
	{"client.open_p99_over_p50", "ratio", true},
	{"client.open_late_share", "ratio", true},
	{"client.open_backlog_n", "count", true},
	{"trace.overhead_share", "ratio", true},
}

// workload is one entry of BENCHMARK.json's workloads: measure is the
// untraced end-to-end run; slice is the traced tenth that follows the
// layer probes in a -trace 1 run; replay picks the requests the layer
// probes replay, the workload's own primary class.
type workload struct {
	name    string
	measure func(*run) error
	slice   func(*run, *rig) error
	replay  func(s *sampler, n int) []*request
}

var workloads = []workload{
	{"advise-search", adviseSearch, adviseSlice, pointReplay},
	{"serve-point", servePoint, pointSlice, pointReplay},
	{"serve-analytic", serveAnalytic, analyticSlice, analyticReplay},
	{"ingest-mutate", ingestMutate, ingestSlice, ingestReplay},
}

// run is one invocation: its inputs, and the metrics, notes and checks
// it accumulates.
type run struct {
	workload string
	seed     int64
	dur      time.Duration
	sz       sizes
	outDir   string
	tmpDir   string

	values    map[string]float64
	samples   map[string]int
	notes     []string
	attempted int
	failed    int
	firstErr  error
}

// warmUp is how long a serving workload runs untimed before measuring,
// so connections exist and the heap has its size.
func (r *run) warmUp() time.Duration {
	return min(r.dur/20, 500*time.Millisecond)
}

func (r *run) set(name string, v float64, samples int) {
	r.values[name] = v
	r.samples[name] = samples
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check counts one attempted operation and, when err is not nil, one
// failed.
func (r *run) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
}

// absorb folds a load phase's operations into the run's totals.
func (r *run) absorb(t *tally) {
	r.attempted += t.ops
	r.failed += t.failed
	if r.firstErr == nil {
		r.firstErr = t.firstErr
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the readable lines and then, last, the JSON object.
func (r *run) report(w io.Writer, traced bool) error {
	fmt.Fprintf(w, "workload %s seed %d seconds %.1f trace %v\n", r.workload, r.seed, r.dur.Seconds(), traced)
	out := make(map[string]jsonMetric)
	for _, m := range metricTable {
		if m.perLayer != traced {
			continue
		}
		v, ok := r.values[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		out[m.name] = jsonMetric{Value: v, Unit: m.unit}
		fmt.Fprintf(w, "  %-42s %16.6g %-6s n=%d\n", m.name, v, m.unit, r.samples[m.name])
	}
	sort.Strings(r.notes)
	for _, n := range r.notes {
		fmt.Fprintln(w, "  note:", n)
	}
	fmt.Fprintf(w, "  ops %d failed %d\n", r.attempted, r.failed)
	if r.firstErr != nil {
		fmt.Fprintln(w, "  first failure:", r.firstErr)
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"correct": r.failed == 0, "attempted": r.attempted, "failed": r.failed, "metrics": out,
	})
}

func main() {
	name := flag.String("workload", "", "advise-search, serve-point, serve-analytic or ingest-mutate")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 24, "seconds of measured work")
	trace := flag.Int("trace", 0, "1 = per-layer metrics and a span file instead of end-to-end metrics")
	out := flag.String("out", filepath.Join(".bench_build", "trace"), "directory for trace-<workload>.json and scratch files")
	goldens := flag.Bool("write-goldens", false, "print goldens.json for the current tree and exit")
	flag.Parse()
	if *goldens {
		if err := writeGoldens(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	r := &run{workload: *name, seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), sz: fullSize, outDir: *out}
	failed, err := r.execute(os.Stdout, *trace != 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if failed > 0 {
		os.Exit(2) // the report was printed; a wrong answer still fails the command
	}
}

// execute runs the workload r names, traced or not, and writes the report
// to w. It returns how many operations failed.
func (r *run) execute(w io.Writer, traced bool) (int, error) {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == r.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return 0, fmt.Errorf("unknown workload %q", r.workload)
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return 0, err
	}
	tmp, err := os.MkdirTemp(r.outDir, "run-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(tmp)
	r.tmpDir, r.values, r.samples = tmp, map[string]float64{}, map[string]int{}
	if traced {
		err = tracedRun(*wl, r)
	} else {
		err = wl.measure(r)
	}
	if err != nil {
		return 0, err
	}
	return r.failed, r.report(w, traced)
}
