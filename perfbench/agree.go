package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// selfAgreement runs every workload as two interleaved run sets of `runs`
// seeds each (set A seeds 1..runs, set B runs+1..2*runs) and prints, per
// gated metric, each set's median and quartiles, its spread (IQR over
// median), the spread of both sets pooled, and whether the sets agree
// within the metric's bound: both spreads within it and the medians apart
// by at most the bound, |B - A| / A, in either direction.
func selfAgreement(sp *spec, runs int, seconds float64, daemonBin, work string) error {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	printEnv("all", 0, work)
	allAgree := true
	for _, wl := range sp.Workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < runs; i++ {
			for s := 0; s < 2; s++ {
				seed := int64(s*runs + i + 1)
				out, e2e, err := runChild(daemonBin, work, wl.Name, seed, seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", wl.Name, seed, err)
				}
				if !out.Correct || out.Failed > 0 {
					return fmt.Errorf("%s seed %d: correct=%v failed=%d", wl.Name, seed, out.Correct, out.Failed)
				}
				for name, v := range e2e {
					if m, ok := out.Metrics[name]; ok {
						v = m.Value // the result line has every digit
					}
					sets[s][name] = append(sets[s][name], v)
				}
			}
		}
		for _, m := range sp.EndToEnd {
			var q [2][3]float64
			var spread [2]float64
			for s := 0; s < 2; s++ {
				q[s] = quartiles(sets[s][m.Name])
				spread[s] = iqrShare(q[s])
			}
			pooled := iqrShare(quartiles(append(append([]float64(nil), sets[0][m.Name]...), sets[1][m.Name]...)))
			apart := math.Abs(q[1][1]-q[0][1]) / q[0][1]
			verdict := "agree"
			if apart > m.Bound || spread[0] > m.Bound || spread[1] > m.Bound {
				verdict, allAgree = "DISAGREE", false
			}
			fmt.Printf("%-10s %-14s A %.4g [%.4g, %.4g] spread %.3f | B %.4g [%.4g, %.4g] spread %.3f | pooled spread %.3f | |B-A|/A %.3f, bound %.2f: %s\n",
				wl.Name, m.Name, q[0][1], q[0][0], q[0][2], spread[0], q[1][1], q[1][0], q[1][2], spread[1], pooled, apart, m.Bound, verdict)
		}
		// The ungated figures, for the record: no bound applies.
		for _, name := range workloadE2E[wl.Name] {
			all := append(append([]float64(nil), sets[0][name]...), sets[1][name]...)
			q := quartiles(all)
			fmt.Printf("%-10s %-22s ungated: median %.4g [%.4g, %.4g] pooled spread %.3f over %d runs\n",
				wl.Name, name, q[1], q[0], q[2], iqrShare(q), len(all))
		}
	}
	if !allAgree {
		return fmt.Errorf("run sets disagree")
	}
	return nil
}

// iqrShare is (Q3 - Q1) / median, 0 for a zero median.
func iqrShare(q [3]float64) float64 {
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / q[1]
}

// runChild runs one untraced run and returns its result, plus every
// "# e2e" figure it printed (the ungated ones included).
func runChild(daemonBin, work, workload string, seed int64, seconds float64) (*output, map[string]float64, error) {
	cmd := exec.Command(os.Args[0], "-daemon", daemonBin, "-work", work, "-workload", workload,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return nil, nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	var out output
	if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
		return nil, nil, err
	}
	e2e := map[string]float64{}
	for _, l := range lines {
		if f := strings.Fields(string(l)); len(f) >= 4 && f[0] == "#" && f[1] == "e2e" {
			if v, err := strconv.ParseFloat(f[3], 64); err == nil {
				e2e[f[2]] = v
			}
		}
	}
	return &out, e2e, nil
}

// quartiles returns Q1, median and Q3 exactly as Python's
// statistics.quantiles(values, n=4) does (exclusive method, index clamped
// to 1..n-1 with the interpolation weight taken after clamping).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	var out [3]float64
	if n == 0 {
		return out
	}
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out
}
