package report

// Golden-file tests: the full text of every artifact cmd/tables and
// cmd/figures print is committed under testdata/golden/, so artifact
// drift fails `go test ./...` instead of silently changing what
// EXPERIMENTS.md claims, and every artifact must still pass. After an
// intentional change, regenerate with
//
//	go test ./internal/report/ -run Golden -update

import (
	"testing"

	"cachesync/internal/golden"
	"cachesync/internal/runner"
)

// TestGoldenTables pins the full cmd/tables print-mode output: both
// paper tables, experiments E1..E21, and the ablations.
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the full experiment suite")
	}
	jobs := TableJobs()
	jobs = append(jobs, ExperimentJobs(false)...)
	jobs = append(jobs, AblationJobs(false)...)
	res, err := runner.Run(jobs, runner.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllPass() {
		t.Fatalf("an artifact diverged from the paper:\n%s", res.Output())
	}
	golden.Check(t, "testdata/golden/tables.txt", res.Output())
}

// TestGoldenFigures pins the full cmd/figures output: every figure
// reproduction, both sequence diagrams, and the Figure 10 arc check.
func TestGoldenFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every figure")
	}
	res, err := runner.Run(FigureJobs(), runner.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllPass() {
		t.Fatalf("a figure diverged from the paper:\n%s", res.Output())
	}
	golden.Check(t, "testdata/golden/figures.txt", res.Output())
}
