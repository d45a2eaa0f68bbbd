package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// declaration is the part of BENCHMARK.json the self-test checks.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDeclaration(t *testing.T) declaration {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOnce runs the benchmark in-process and decodes its record line and
// its result line.
func runOnce(t *testing.T, p pins, args ...string) (int, result, record) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append(args, "--out", t.TempDir()), &stdout, &stderr, p)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	var rec record
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("exit %d, last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", code, err, &stdout, &stderr)
	}
	for _, l := range lines {
		if raw, ok := strings.CutPrefix(l, "record "); ok {
			if err := json.Unmarshal([]byte(raw), &rec); err != nil {
				t.Fatalf("bad record line: %v", err)
			}
		}
	}
	return code, res, rec
}

// TestTablesMatchDeclaration pins the code's metric tables to
// BENCHMARK.json, name for name and unit for unit.
func TestTablesMatchDeclaration(t *testing.T) {
	d := readDeclaration(t)
	for _, c := range []struct {
		mode string
		decl []declared
		code []metricDef
	}{{"end_to_end", d.EndToEnd, endToEnd}, {"per_layer", d.PerLayer, perLayer}} {
		if len(c.decl) != len(c.code) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the code reports %d", c.mode, len(c.decl), len(c.code))
		}
		for i := range c.decl {
			if c.decl[i].Name != c.code[i].name || c.decl[i].Unit != c.code[i].unit {
				t.Errorf("%s[%d]: declared %s [%s], code has %s [%s]", c.mode, i,
					c.decl[i].Name, c.decl[i].Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
	for _, w := range d.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("declared workload %s has no implementation", w.Name)
		}
	}
}

// TestEveryWorkloadEmitsDeclaredMetrics runs each workload at a short run
// length, untraced and traced, and checks the result carries exactly the
// declared metrics with their units, every gate passed, and the server
// never accepted more connections than the load may open. The untraced
// run splits its window over many fleets; 3 s gives its accuracy gate a
// few thousand answers to rest on.
func TestEveryWorkloadEmitsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("boots every workload")
	}
	d := readDeclaration(t)
	p, err := defaultPins()
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for trace, seconds := range map[string]string{"0": "3", "1": "0.5"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				code, res, rec := runOnce(t, p, "--workload", name, "--seed", "3", "--seconds", seconds, "--trace", trace)
				if code != 0 || !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("exit %d, result %+v, gates %+v", code, res, rec.Gates)
				}
				want := d.EndToEnd
				if trace == "1" {
					want = d.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
				if strings.HasPrefix(name, "serve_") && (rec.Conns < 1 || rec.Conns > int64(clientConns())) {
					t.Errorf("server accepted %d connections, want 1..%d", rec.Conns, clientConns())
				}
			})
		}
	}
}

// TestCorruptedPinsFail checks the output gates against the pins: a
// digest that does not match the runner's CSV, or a Boot.Accuracy that
// does not match the fleet's, makes the traced run fail.
func TestCorruptedPinsFail(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a sweep")
	}
	p, err := defaultPins()
	if err != nil {
		t.Fatal(err)
	}
	p.Digests = map[string]string{"sweep_train": strings.Repeat("0", 64)}
	p.BootAccuracy = map[string]float64{"quick": 0.5}
	code, res, rec := runOnce(t, p, "--workload", "serve_json", "--trace", "1", "--seed", "3", "--seconds", "0.1")
	if code == 0 || res.Correct {
		t.Errorf("corrupted pins passed: exit %d, correct %v", code, res.Correct)
	}
	failed := map[string]bool{}
	for _, g := range rec.Gates {
		failed[g.Name] = !g.OK
	}
	for _, name := range []string{"digest.sweep_train", "boot_accuracy"} {
		if !failed[name] {
			t.Errorf("gate %s did not fail; gates %+v", name, rec.Gates)
		}
	}
}
