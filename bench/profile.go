package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"
)

// bgPkg is the share key for samples with no repro/internal frame: the Go
// runtime's own work (GC, scheduler) and the benchmark's own loop.
const bgPkg = "runtime.bg"

const repoPrefix = "repro/internal/"

// layerShares reads a CPU profile of this executable through
// `go tool pprof -traces` and returns each layer's share of the samples.
func layerShares(prof string) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out, stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", exe, prof)
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w: %s", err, stderr.String())
	}
	return groupTraces(&out)
}

// groupTraces parses `pprof -traces` text and attributes every sample to
// the package of its innermost repro/internal frame (its layer), or to
// bgPkg when the stack has none. It returns percentages of all samples.
//
// The text is a series of blocks separated by "-----------+-----" lines;
// a block's first line carries the sample value and the leaf frame, and
// each further line one caller frame.
func groupTraces(r io.Reader) (map[string]float64, error) {
	sums := map[string]float64{}
	var total float64
	value := -1.0 // the current block's sample value, -1 before its first line
	pkg := ""
	flush := func() {
		if value < 0 {
			return
		}
		if pkg == "" {
			pkg = bgPkg
		}
		sums[pkg] += value
		total += value
		value, pkg = -1, ""
	}
	started := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "-----------+") {
			flush()
			started = true
			continue
		}
		if !started || line == "" {
			continue // header lines before the first block
		}
		frame := line
		if value < 0 {
			v, rest, ok := strings.Cut(line, " ")
			if !ok {
				return nil, fmt.Errorf("pprof traces: block starts without a value: %q", line)
			}
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, fmt.Errorf("pprof traces: sample value %q: %w", v, err)
			}
			value, frame = float64(d), strings.TrimSpace(rest)
		}
		if pkg == "" && strings.HasPrefix(frame, repoPrefix) {
			rest := frame[len(repoPrefix):]
			if i := strings.IndexByte(rest, '.'); i > 0 {
				pkg = rest[:i]
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	for k := range sums {
		sums[k] = sums[k] / total * 100
	}
	return sums, nil
}
