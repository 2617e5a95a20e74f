package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// ArtifactRecord is one job in the JSON artifact file. The rendered
// output is recorded as a hash, not inline: the full text lives in
// the golden files (internal/report/testdata/golden), while the
// artifact file stays a compact, diffable manifest.
type ArtifactRecord struct {
	Name       string  `json:"name"`
	ConfigHash string  `json:"config_hash,omitempty"`
	OutputSHA  string  `json:"output_sha256"`
	OutputLen  int     `json:"output_len"`
	Pass       bool    `json:"pass"`
	WallMS     float64 `json:"wall_ms"`
	Cached     bool    `json:"cached"`
}

// ArtifactFile is the JSON manifest a run emits (-json) and the gate
// diffs against (-gate). Wall-clock and cache fields are informative
// only; the gate compares names, output hashes, and pass verdicts.
type ArtifactFile struct {
	Workers int              `json:"workers"`
	WallMS  float64          `json:"wall_ms"`
	Jobs    []ArtifactRecord `json:"jobs"`
}

// Manifest converts a run result into its artifact manifest.
func (r *Result) Manifest() *ArtifactFile {
	f := &ArtifactFile{Workers: r.Workers, WallMS: float64(r.Wall.Nanoseconds()) / 1e6}
	for i := range r.Jobs {
		j := &r.Jobs[i]
		sum := sha256.Sum256([]byte(j.Artifact.Output))
		f.Jobs = append(f.Jobs, ArtifactRecord{
			Name:      j.Artifact.Name,
			OutputSHA: hex.EncodeToString(sum[:]),
			OutputLen: len(j.Artifact.Output),
			Pass:      j.Artifact.Pass,
			WallMS:    float64(j.Wall.Nanoseconds()) / 1e6,
			Cached:    j.Cached,
		})
	}
	return f
}

// WriteArtifacts serializes the manifest to path.
func WriteArtifacts(path string, f *ArtifactFile) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadArtifacts loads a manifest.
func ReadArtifacts(path string) (*ArtifactFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f ArtifactFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("runner: artifact file %s: %w", path, err)
	}
	return &f, nil
}

// Gate diffs a run against a committed baseline manifest, writing one
// line per job to w. It returns the number of divergences: drifted
// output, failed pass verdict, or a baseline job missing from the run. New
// jobs absent from the baseline are reported but do not fail the
// gate — committing the refreshed manifest adopts them.
func Gate(w io.Writer, baseline *ArtifactFile, run *Result) int {
	base := make(map[string]ArtifactRecord, len(baseline.Jobs))
	for _, j := range baseline.Jobs {
		base[j.Name] = j
	}
	cur := run.Manifest()
	seen := make(map[string]bool, len(cur.Jobs))
	bad := 0
	for _, j := range cur.Jobs {
		seen[j.Name] = true
		b, ok := base[j.Name]
		switch {
		case !ok:
			fmt.Fprintf(w, "gate: %-28s NEW    (no baseline entry; refresh with -json)\n", j.Name)
		case !j.Pass:
			bad++
			fmt.Fprintf(w, "gate: %-28s FAIL   artifact diverges from the paper\n", j.Name)
		case j.OutputSHA != b.OutputSHA:
			bad++
			fmt.Fprintf(w, "gate: %-28s DRIFT  output changed (%d -> %d bytes); inspect, then refresh with -json\n",
				j.Name, b.OutputLen, j.OutputLen)
		default:
			fmt.Fprintf(w, "gate: %-28s OK     (%d bytes)\n", j.Name, j.OutputLen)
		}
	}
	var missing []string
	for name := range base {
		if !seen[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		bad++
		fmt.Fprintf(w, "gate: %-28s GONE   baseline job not produced by this run\n", name)
	}
	return bad
}
