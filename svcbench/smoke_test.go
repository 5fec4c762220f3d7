package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// benchmarkDecl is the part of BENCHMARK.json the tests compare against.
type benchmarkDecl struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadDecl(t *testing.T) benchmarkDecl {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d benchmarkDecl
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeclaredWorkloadsExist(t *testing.T) {
	d := loadDecl(t)
	var declared, have []string
	for _, w := range d.Workloads {
		declared = append(declared, w.Name)
	}
	for _, s := range shapes {
		have = append(have, s.name)
	}
	sort.Strings(declared)
	sort.Strings(have)
	if strings.Join(declared, ",") != strings.Join(have, ",") {
		t.Fatalf("BENCHMARK.json declares workloads %v, svcbench has %v", declared, have)
	}
}

// buildStreamd builds the daemon from the tree under test.
func buildStreamd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "streamd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/streamd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build streamd: %v\n%s", err, out)
	}
	return bin
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmokeEachWorkload runs every workload briefly, untraced (ten rounds
// of a second) and traced: each must pass the reference check and the
// cross-checks, and print exactly the metrics BENCHMARK.json declares for
// its mode, with the declared units; no end-to-end metric may read 0.
func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts streamd and runs every workload")
	}
	d := loadDecl(t)
	want := [2]map[string]string{{}, {}}
	for _, m := range d.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		want[1][m.Name] = m.Unit
	}
	bin := buildStreamd(t)
	for _, sh := range shapes {
		for trace := 0; trace <= 1; trace++ {
			t.Run(fmt.Sprintf("%s/trace%d", sh.name, trace), func(t *testing.T) {
				seconds := []string{"10", "2"}[trace]
				var out bytes.Buffer
				code := run([]string{"-streamd", bin, "-work", t.TempDir(),
					"--workload", sh.name, "--seed", "7", "--seconds", seconds, "--trace", fmt.Sprint(trace)}, &out)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					t.Fatalf("exit %d, last line not a report: %v\n%s", code, err, out.String())
				}
				if code != 0 || !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("exit %d, report %+v\n%s", code, rep, out.String())
				}
				for name, m := range rep.Metrics {
					if !metricName.MatchString(name) {
						t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", name)
					}
					unit, ok := want[trace][name]
					if !ok {
						t.Errorf("printed metric %q is not declared in BENCHMARK.json", name)
					} else if unit != m.Unit {
						t.Errorf("metric %q printed with unit %q, declared %q", name, m.Unit, unit)
					}
					if trace == 0 && m.Value <= 0 {
						t.Errorf("end-to-end metric %q reads %v", name, m.Value)
					}
				}
				for name := range want[trace] {
					if _, ok := rep.Metrics[name]; !ok {
						t.Errorf("declared metric %q not printed", name)
					}
				}
			})
		}
	}
}
