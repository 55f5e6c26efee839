package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
)

// run is one benchmark run read back from a log: the info line and the
// result line that follows it.
type run struct {
	info runInfo
	res  result
}

// compareMain compares two result sets, each a log of benchmark runs
// (the standard output of perfbench, concatenated), workload by
// workload, by the rule of choosing-metrics §8: runs are paired in
// order and should alternate which side ran first; the change is better
// on a metric only if it wins at least 9 of 10 pairs and the medians
// differ by more than the parent's interquartile range; it regresses if
// its median is worse than the parent's by more than the metric's
// bound; and the comparison is unresolved when the parent's own spread
// exceeds the bound. Directions and bounds come from BENCHMARK.json in
// the checkout root, where run.sh starts the benchmark.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare PARENT.log CHANGE.log")
		return 2
	}
	spec, err := readSpec("BENCHMARK.json")
	if err == nil {
		var sides [2][]run
		for i := range sides {
			if sides[i], err = readRuns(args[i]); err != nil {
				break
			}
		}
		if err == nil {
			compare(spec, sides[0], sides[1])
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench compare:", err)
	return 1
}

type specMetric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) ([]specMetric, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// readRuns reads the untraced runs from a log.
func readRuns(path string) ([]run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []run
	var pending *runInfo
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, `{"perfbench":`):
			var l struct {
				Info runInfo `json:"perfbench"`
			}
			if err := json.Unmarshal([]byte(line), &l); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			pending = &l.Info
		case strings.HasPrefix(line, `{"correct":`) && pending != nil:
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			if pending.Trace == 0 {
				runs = append(runs, run{info: *pending, res: r})
			}
			pending = nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no untraced runs", path)
	}
	return runs, nil
}

func compare(spec []specMetric, parent, change []run) {
	byWorkload := func(runs []run) map[string][]run {
		m := map[string][]run{}
		for _, r := range runs {
			m[r.info.Workload] = append(m[r.info.Workload], r)
		}
		return m
	}
	pw, cw := byWorkload(parent), byWorkload(change)
	var names []string
	for w := range pw {
		if _, ok := cw[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	env := func(rs []run) string {
		i := rs[0].info
		return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s, %d runs", i.Nproc, i.GOMAXPROCS, i.GoVersion, len(rs))
	}
	for _, w := range names {
		p, c := pw[w], cw[w]
		fmt.Printf("workload %s\n  parent: %s\n  change: %s\n", w, env(p), env(c))
		alternated, how := alternation(p, c)
		fmt.Printf("  pairs alternated: %s\n", how)
		fmt.Printf("  exact outcomes: %s\n", exactVerdict(p, c))
		fmt.Printf("  failed runs: parent %s, change %s\n", failedRuns(p), failedRuns(c))
		fmt.Printf("  %-18s %28s %28s %7s  %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
		for _, m := range spec {
			pv, cv := values(p, m.Name), values(c, m.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			fmt.Printf("  %-18s %28s %28s %7s  %s\n", m.Name, summary(pv), summary(cv),
				fmt.Sprintf("%d/%d", wins(m, pv, cv), min(len(pv), len(cv))), verdict(m, pv, cv, alternated))
		}
	}
}

func values(rs []run, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.res.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// quartiles follows Python's statistics.quantiles(data, n=4), the
// default "exclusive" method.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), q1, q3)
}

// better reports whether a is better than b for metric m.
func better(m specMetric, a, b float64) bool {
	if m.Better == "higher" {
		return a > b
	}
	return a < b
}

// wins counts the pairs, in run order, the change wins; ties count for
// neither side.
func wins(m specMetric, pv, cv []float64) int {
	n := 0
	for i := 0; i < min(len(pv), len(cv)); i++ {
		if better(m, cv[i], pv[i]) {
			n++
		}
	}
	return n
}

// verdict applies the rule to one metric. A gain can be claimed only
// from at least ten pairs whose order alternated.
func verdict(m specMetric, pv, cv []float64, alternated bool) string {
	mp, mc := median(pv), median(cv)
	q1, q3 := quartiles(pv)
	iqr := q3 - q1
	pairs := min(len(pv), len(cv))
	everyRunBetter := true
	for _, c := range cv {
		for _, p := range pv {
			if !better(m, c, p) {
				everyRunBetter = false
			}
		}
	}
	worse := mc - mp
	if m.Better == "higher" {
		worse = mp - mc
	}
	switch {
	case mp != 0 && iqr/mp > m.Bound && !everyRunBetter:
		return fmt.Sprintf("unresolved: parent spread %.1f%% exceeds the %.0f%% bound", 100*iqr/mp, 100*m.Bound)
	case better(m, mc, mp) && 10*wins(m, pv, cv) >= 9*pairs && -worse > iqr:
		if !alternated || pairs < 10 {
			return fmt.Sprintf("not claimable (needs 10 alternated pairs): better by %.1f%%", 100*-worse/mp)
		}
		return fmt.Sprintf("better by %.1f%%", 100*-worse/mp)
	case worse > m.Bound*mp:
		return fmt.Sprintf("REGRESSION: worse by %.1f%%, bound %.0f%%", 100*worse/mp, 100*m.Bound)
	default:
		return "no change beyond the bound"
	}
}

// alternation checks that, in start-time order, the runs of the two
// sides come in pairs holding one run of each, with the side that runs
// first alternating.
func alternation(p, c []run) (bool, string) {
	type ev struct {
		at     int64
		parent bool
	}
	var evs []ev
	for _, r := range p {
		evs = append(evs, ev{r.info.StartedMs, true})
	}
	for _, r := range c {
		evs = append(evs, ev{r.info.StartedMs, false})
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	parentFirst := 0
	for i := 0; i+1 < len(evs); i += 2 {
		if evs[i].parent == evs[i+1].parent {
			return false, "no (runs are not interleaved pair by pair)"
		}
		if evs[i].parent {
			parentFirst++
		}
	}
	pairs := len(evs) / 2
	if d := 2*parentFirst - pairs; d > 1 || d < -1 {
		return false, fmt.Sprintf("no (parent ran first in %d of %d pairs)", parentFirst, pairs)
	}
	return true, fmt.Sprintf("yes (%d pairs)", pairs)
}

// exactVerdict checks that all runs of one seed, on both sides, have
// the same exact simulated outcomes.
func exactVerdict(p, c []run) string {
	ref := map[int64]map[string]float64{}
	for _, r := range append(append([]run(nil), p...), c...) {
		want, ok := ref[r.info.Seed]
		if !ok {
			ref[r.info.Seed] = r.info.Exact
			continue
		}
		if !reflect.DeepEqual(r.info.Exact, want) {
			return fmt.Sprintf("CHANGED at seed %d: %v vs %v", r.info.Seed, r.info.Exact, want)
		}
	}
	return fmt.Sprintf("identical within each of %d seeds", len(ref))
}

// failedRuns names the runs of one side that were not correct or
// recorded errors: a failure in either side makes its timings
// meaningless, whatever the verdicts below say.
func failedRuns(rs []run) string {
	var bad []string
	for _, r := range rs {
		if !r.res.Correct || r.res.Failed > 0 || len(r.info.Errors) > 0 {
			bad = append(bad, fmt.Sprintf("seed %d (%d of %d operations failed)", r.info.Seed, r.res.Failed, r.res.Attempted))
		}
	}
	if len(bad) == 0 {
		return "none"
	}
	return fmt.Sprintf("FAILED %d of %d: %s", len(bad), len(rs), strings.Join(bad, ", "))
}
