package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vortex/internal/experiment"
	"vortex/internal/obs"
)

// TestMetricsMuxServesPrometheus drives the -pprof endpoint surface
// through httptest: /metrics/prometheus must answer a payload that
// passes the exposition validator, and the pprof/expvar pages must be
// mounted.
func TestMetricsMuxServesPrometheus(t *testing.T) {
	obs.Default().Counter("vortexsim.test.reads").Add(3)
	srv := httptest.NewServer(newMetricsMux())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics/prometheus")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics/prometheus = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	if err := obs.ValidatePrometheus(body); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	if !strings.Contains(string(body), "vortexsim_test_reads_total 3") {
		t.Errorf("counter missing from exposition:\n%s", body)
	}

	for _, path := range []string{"/debug/pprof/", "/debug/vars"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
	}
}

// TestBuildManifest checks the crash-dump manifest captures the run
// identity fields the post-mortem tooling keys on.
func TestBuildManifest(t *testing.T) {
	m := buildManifest("soasweep", "quick", 7)
	if m.Command != "vortexsim" || m.Experiment != "soasweep" || m.Scale != "quick" || m.Seed != 7 {
		t.Errorf("manifest identity = %+v", m)
	}
	if m.GoVersion == "" || m.GOMAXPROCS < 1 || m.KernelISA == "" || m.PID == 0 {
		t.Errorf("manifest environment incomplete: %+v", m)
	}
}

// TestRunListAll pins what "-exp all" runs: every registered runner
// except crashdemo, which panics by design and stays runnable by name.
func TestRunListAll(t *testing.T) {
	all, ok := runList("all")
	if !ok {
		t.Fatal(`runList("all") not ok`)
	}
	var want []string
	for _, r := range experiment.Runners() {
		if r.Name != "crashdemo" {
			want = append(want, r.Name)
		}
	}
	var got []string
	for _, r := range all {
		got = append(got, r.Name)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("-exp all runs %v, want %v", got, want)
	}
	if demo, ok := runList("crashdemo"); !ok || len(demo) != 1 || demo[0].Name != "crashdemo" {
		t.Errorf(`runList("crashdemo") = %v, %v; want the crashdemo runner`, demo, ok)
	}
	if _, ok := runList("no-such-runner"); ok {
		t.Error("runList accepted an unknown name")
	}
}
