package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// smokeSize shrinks every generated input and probe so that all four
// workloads, traced and untraced, finish in seconds.
var smokeSize = sizes{setupRounds: 1, docs: 2, shows: 10, largeMul: 2, pool: 32, replays: 32, mutations: 8, repeats: 1}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload both ways at a small scale and checks
// that the last line of the report parses, that it carries exactly the
// metrics BENCHMARK.json declares, with their units, and that no
// operation failed.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []declared `json:"workloads"`
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		for _, traced := range []bool{false, true} {
			want := bench.EndToEnd
			if traced {
				want = bench.PerLayer
			}
			var out bytes.Buffer
			r := &run{workload: w.Name, seed: 7, dur: 200 * time.Millisecond, sz: smokeSize, outDir: t.TempDir()}
			failed, err := r.execute(&out, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if failed != 0 {
				t.Errorf("%s traced=%v: %d operations failed:\n%s", w.Name, traced, failed, out.String())
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				t.Fatalf("%s traced=%v: last line is not JSON: %v\n%s", w.Name, traced, err, lines[len(lines)-1])
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics reported, %d declared", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok || got.Value == nil:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, declared %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case !traced && *got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v", w.Name, m.Name, *got.Value)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(r.outDir, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", w.Name, err)
				}
			}
		}
	}
}
