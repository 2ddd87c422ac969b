package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"netdimm/internal/experiments"
	"netdimm/internal/stats"
)

// Result is what an Executor returns for one cell: the cell's CSV
// document, the exact data-row count the binding expects the CSV to have
// (0 when only the schema lower bound applies), the optional metrics
// registry CSV, and the SHA-256 of the cell's resolved configuration.
type Result struct {
	CSV        string
	WantRows   int
	MetricsCSV string
	TraceJSON  string
	ConfigHash string
}

// Executor runs one planned cell to completion. Executors must be safe
// for concurrent calls on distinct cells — the runner fans cells out
// exactly like an experiment sweep fans out its grid points.
type Executor func(Cell) (Result, error)

// Runner executes a campaign grid to completion. Zero-value fields pick
// sensible defaults; Grid, Schemas and Exec are required.
type Runner struct {
	// Grid is the validated campaign to run.
	Grid Grid
	// OutRoot is the directory the timestamped campaign directory is
	// created under (default "campaigns").
	OutRoot string
	// Stamp overrides the directory timestamp (default: UTC now as
	// 20060102T150405Z). On collision a -2, -3, ... suffix is appended,
	// so two campaigns in one second never overwrite each other.
	Stamp string
	// Schemas is the per-family CSV contract registry.
	Schemas map[string]Schema
	// Exec runs one cell.
	Exec Executor
	// GitRevision is recorded in the manifest ("" omits it).
	GitRevision string
	// GridPath, when set, is recorded in the manifest along with the grid
	// file's SHA-256.
	GridPath string
	// Log mirrors the run log (e.g. to os.Stderr); nil discards it. The
	// run.log file in the output directory is always written.
	Log io.Writer
}

// RunReport is what Run returns on top of the on-disk artifacts.
type RunReport struct {
	// Dir is the created campaign directory.
	Dir string
	// Manifest is the written manifest.
	Manifest Manifest
	// Summary is the grouped per-family summary (also written as
	// summary.txt).
	Summary string
	// Failed counts cells that errored or failed CSV validation.
	Failed int
}

// Run plans the grid, executes every cell, validates every CSV, writes
// the output directory and returns the report. Cell failures do not stop
// the campaign: every cell runs, failures are recorded in the manifest and
// summary, and Run returns an error naming the first failure so callers
// exit non-zero.
func (r *Runner) Run() (*RunReport, error) {
	cells, err := r.Grid.Plan()
	if err != nil {
		return nil, err
	}
	dir, stamp, err := r.makeDir()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(dir, "csv"), 0o755); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	logFile, err := os.Create(filepath.Join(dir, "run.log"))
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	defer logFile.Close()
	log := &runLog{file: logFile, mirror: r.Log}

	name := r.Grid.Name
	if name == "" {
		name = "campaign"
	}
	host := CurrentHost()
	log.printf("campaign %s: %d cells, parallelism %d, %s/%s, %s, git %s",
		name, len(cells), r.Grid.Parallelism, host.GOOS, host.GOARCH, host.GoVersion, orDash(r.GitRevision))

	results := make([]Result, len(cells))
	errs := make([]error, len(cells))
	rows := make([]int, len(cells))
	walls := make([]float64, len(cells))
	experiments.ForEachCell(len(cells), r.Grid.Parallelism, func(i int) {
		c := cells[i]
		t0 := time.Now()
		res, err := r.Exec(c)
		if err == nil {
			schema, ok := r.Schemas[c.Row.Experiment]
			if !ok {
				err = fmt.Errorf("no schema registered for family %q", c.Row.Experiment)
			} else {
				rows[i], err = ValidateCSV(res.CSV, schema, res.WantRows)
			}
		}
		results[i], errs[i] = res, err
		walls[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
		if err != nil {
			log.printf("cell %s: FAILED after %.1fms: %v", c.Name, walls[i], err)
		} else {
			log.printf("cell %s: ok (%d rows, %.1fms)", c.Name, rows[i], walls[i])
		}
	})

	man := Manifest{
		Campaign:    name,
		Stamp:       stamp,
		CreatedUTC:  time.Now().UTC().Format(time.RFC3339),
		Host:        host,
		GitRevision: r.GitRevision,
		GridPath:    r.GridPath,
		Parallelism: r.Grid.Parallelism,
	}
	if r.GridPath != "" {
		man.GridSHA256 = fileSHA256(r.GridPath)
	}
	failed := 0
	for i, c := range cells {
		rec := CellRecord{
			Name:       c.Name,
			Experiment: c.Row.Experiment,
			Scenario:   c.Row.Scenario,
			Repeat:     c.Repeat,
			Seed:       c.Seed,
			Packets:    c.Row.Packets,
			ConfigHash: results[i].ConfigHash,
			Rows:       rows[i],
			WallMs:     walls[i],
			Status:     "ok",
		}
		if errs[i] != nil {
			rec.Status = errs[i].Error()
			failed++
			man.Cells = append(man.Cells, rec)
			continue
		}
		rec.CSV = filepath.Join("csv", c.Name+".csv")
		if err := os.WriteFile(filepath.Join(dir, rec.CSV), []byte(results[i].CSV), 0o644); err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
		if results[i].MetricsCSV != "" {
			rec.MetricsCSV = filepath.Join("metrics", c.Name+".csv")
			if err := os.MkdirAll(filepath.Join(dir, "metrics"), 0o755); err != nil {
				return nil, fmt.Errorf("campaign: %w", err)
			}
			if err := os.WriteFile(filepath.Join(dir, rec.MetricsCSV), []byte(results[i].MetricsCSV), 0o644); err != nil {
				return nil, fmt.Errorf("campaign: %w", err)
			}
		}
		if results[i].TraceJSON != "" {
			rec.Trace = filepath.Join("trace", c.Name+".json")
			if err := os.MkdirAll(filepath.Join(dir, "trace"), 0o755); err != nil {
				return nil, fmt.Errorf("campaign: %w", err)
			}
			if err := os.WriteFile(filepath.Join(dir, rec.Trace), []byte(results[i].TraceJSON), 0o644); err != nil {
				return nil, fmt.Errorf("campaign: %w", err)
			}
		}
		man.Cells = append(man.Cells, rec)
	}

	summary := summarize(name, man.Cells)
	if err := os.WriteFile(filepath.Join(dir, "summary.txt"), []byte(summary), 0o644); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	if err := writeJSON(filepath.Join(dir, "manifest.json"), man); err != nil {
		return nil, err
	}
	log.printf("campaign %s: %d/%d cells ok, outputs in %s", name, len(cells)-failed, len(cells), dir)

	rep := &RunReport{Dir: dir, Manifest: man, Summary: summary, Failed: failed}
	if failed > 0 {
		return rep, fmt.Errorf("campaign: %d of %d cells failed (first: %s: %v)",
			failed, len(cells), firstFailure(cells, errs), firstErr(errs))
	}
	return rep, nil
}

// makeDir creates the unique timestamped campaign directory.
func (r *Runner) makeDir() (dir, stamp string, err error) {
	root := r.OutRoot
	if root == "" {
		root = "campaigns"
	}
	stamp = r.Stamp
	if stamp == "" {
		stamp = time.Now().UTC().Format("20060102T150405Z")
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", "", fmt.Errorf("campaign: %w", err)
	}
	try := stamp
	for n := 2; ; n++ {
		err := os.Mkdir(filepath.Join(root, try), 0o755)
		if err == nil {
			return filepath.Join(root, try), try, nil
		}
		if !os.IsExist(err) {
			return "", "", fmt.Errorf("campaign: %w", err)
		}
		try = fmt.Sprintf("%s-%d", stamp, n)
	}
}

// summarize renders the grouped cross-experiment summary: one table per
// experiment family, cells in plan order.
func summarize(name string, cells []CellRecord) string {
	var sb strings.Builder
	var families []string
	seen := map[string]bool{}
	for _, c := range cells {
		if !seen[c.Experiment] {
			seen[c.Experiment] = true
			families = append(families, c.Experiment)
		}
	}
	fmt.Fprintf(&sb, "Campaign %s — %d cells\n", name, len(cells))
	for _, fam := range families {
		t := &stats.Table{Header: []string{"cell", "scenario", "repeat", "seed", "rows", "wall_ms", "status"}}
		for _, c := range cells {
			if c.Experiment != fam {
				continue
			}
			scenario := c.Scenario
			if scenario == "" {
				scenario = "table1"
			}
			t.AddRow(c.Name, scenario, fmt.Sprint(c.Repeat), fmt.Sprint(c.Seed),
				fmt.Sprint(c.Rows), fmt.Sprintf("%.1f", c.WallMs), c.Status)
		}
		fmt.Fprintf(&sb, "\n%s\n%s", fam, t.String())
	}
	return sb.String()
}

// runLog serializes log lines to the run.log file and an optional mirror.
type runLog struct {
	mu     sync.Mutex
	file   io.Writer
	mirror io.Writer
}

func (l *runLog) printf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	line := fmt.Sprintf("%s %s\n", time.Now().UTC().Format("15:04:05.000"), fmt.Sprintf(format, args...))
	io.WriteString(l.file, line)
	if l.mirror != nil {
		io.WriteString(l.mirror, line)
	}
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return fmt.Errorf("campaign: %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	return nil
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func firstFailure(cells []Cell, errs []error) string {
	for i, err := range errs {
		if err != nil {
			return cells[i].Name
		}
	}
	return ""
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
