package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
)

// nearestRank returns the q-quantile of xs by nearest rank (the rule
// qserve's reports use); 0 when empty.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// beyond is the number of samples above the q-quantile of n samples.
func beyond(n, q float64) float64 { return n - math.Ceil(q*n) }

// median of wall-clock samples (the mean of the middle two when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// queryMetrics summarizes query outcomes: t90/t99 percentiles (failed
// queries already charged to end of run), completeness, failures.
func queryMetrics(qs []queryOutcome) map[string]float64 {
	var t90, t99, compl []float64
	failed := 0
	for _, q := range qs {
		t90 = append(t90, q.t90)
		t99 = append(t99, q.t99)
		compl = append(compl, q.compl)
		if !q.reached {
			failed++
		}
	}
	compl = finite(compl)
	failPct := 0.0
	if len(qs) > 0 {
		failPct = 100 * float64(failed) / float64(len(qs))
	}
	return map[string]float64{
		"t90_p50":    nearestRank(t90, 0.5),
		"t90_p90":    nearestRank(t90, 0.9),
		"t99_p50":    nearestRank(t99, 0.5),
		"t99_p90":    nearestRank(t99, 0.9),
		"t90_mean":   mean(t90),
		"t99_mean":   mean(t99),
		"compl_mean": mean(compl),
		"compl_n":    float64(len(compl)),
		"fail_pct":   failPct,
		"failed":     float64(failed),
	}
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+modified"
			}
		}
	}
	return rev + dirty
}

// sourceDigest hashes go.mod and every Go file under internal/ of the
// working directory: it identifies the code under test even where the
// checkout carries no VCS metadata.
func sourceDigest() string {
	h := sha256.New()
	files := []string{"go.mod"}
	_ = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		h.Write([]byte(f))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// finite drops NaNs.
func finite(xs []float64) []float64 {
	out := xs[:0:0]
	for _, x := range xs {
		if !math.IsNaN(x) {
			out = append(out, x)
		}
	}
	return out
}
