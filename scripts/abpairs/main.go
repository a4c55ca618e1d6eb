// Command abpairs summarises alternating A/B pairs of perfbench runs, the
// record scripts/abpairs.sh collects, as one JSON document.
//
// Its input, on standard input, is one line per run: the side ("base" or
// "head"), the pair number and perfbench's result object, separated by
// tabs. For every metric it prints both sides' medians and interquartile
// ranges, the ratio of the medians (head over base), and how many pairs
// the head side won, "better" being the direction that BENCHMARK.json, in
// the working directory, gives the metric. A claim is noise unless the
// head wins a clear majority of pairs and its median moves by more than
// the base's IQR (shift_exceeds_base_iqr).
//
//	go run ./scripts/abpairs -base A -head B -workload W < runs.tsv
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// result is perfbench's last output line.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// benchmark is the part of BENCHMARK.json that says which way is better.
type benchmark struct {
	EndToEnd []direction `json:"end_to_end"`
	PerLayer []direction `json:"per_layer"`
}

type direction struct {
	Name   string `json:"name"`
	Better string `json:"better"`
}

// side is one revision's distribution of a metric.
type side struct {
	Median float64   `json:"median"`
	IQR    float64   `json:"iqr"`
	Values []float64 `json:"values"`
}

// summary is one metric's comparison.
type summary struct {
	Unit     string  `json:"unit"`
	Better   string  `json:"better"`
	EndToEnd bool    `json:"end_to_end"`
	Base     side    `json:"base"`
	Head     side    `json:"head"`
	Ratio    float64 `json:"ratio"`
	Pairs    int     `json:"pairs"`
	HeadWins int     `json:"head_wins"`
	// ShiftExceedsBaseIQR: the medians differ, in the better direction,
	// by more than the base's interquartile range.
	ShiftExceedsBaseIQR bool `json:"shift_exceeds_base_iqr"`
}

type report struct {
	Workload string `json:"workload"`
	Base     string `json:"base"`
	Head     string `json:"head"`
	Pairs    int    `json:"pairs"`
	// Failed and Incorrect count, per side, failed operations and runs
	// whose output check failed.
	Failed    map[string]int      `json:"failed"`
	Incorrect map[string]int      `json:"incorrect"`
	Metrics   map[string]*summary `json:"metrics"`
}

func main() {
	base := flag.String("base", "", "base revision, recorded in the output")
	head := flag.String("head", "", "head revision, recorded in the output")
	workload := flag.String("workload", "", "workload, recorded in the output")
	flag.Parse()
	rep, err := summarise(os.Stdin, "BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "abpairs:", err)
		os.Exit(1)
	}
	rep.Workload, rep.Base, rep.Head = *workload, *base, *head
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "abpairs:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func summarise(in io.Reader, benchPath string) (*report, error) {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return nil, err
	}
	var b benchmark
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", benchPath, err)
	}
	better := map[string]string{}
	endToEnd := map[string]bool{}
	for _, d := range b.EndToEnd {
		better[d.Name], endToEnd[d.Name] = d.Better, true
	}
	for _, d := range b.PerLayer {
		better[d.Name] = d.Better
	}

	// runs[pair][side] is that run's result.
	runs := map[int]map[string]*result{}
	rep := &report{Failed: map[string]int{}, Incorrect: map[string]int{}, Metrics: map[string]*summary{}}
	sc := bufio.NewScanner(in)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		fields := strings.SplitN(sc.Text(), "\t", 3)
		if len(fields) != 3 || (fields[0] != "base" && fields[0] != "head") {
			return nil, fmt.Errorf("line %d: want <base|head> TAB <pair> TAB <result>", line)
		}
		pair, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("line %d: pair: %w", line, err)
		}
		var r result
		if err := json.Unmarshal([]byte(fields[2]), &r); err != nil {
			return nil, fmt.Errorf("line %d: result: %w", line, err)
		}
		if runs[pair] == nil {
			runs[pair] = map[string]*result{}
		}
		runs[pair][fields[0]] = &r
		rep.Failed[fields[0]] += r.Failed
		if !r.Correct {
			rep.Incorrect[fields[0]]++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	pairs := make([]int, 0, len(runs))
	for p, sides := range runs {
		if sides["base"] != nil && sides["head"] != nil {
			pairs = append(pairs, p)
		}
	}
	sort.Ints(pairs)
	rep.Pairs = len(pairs)
	if len(pairs) == 0 {
		return nil, fmt.Errorf("no complete pair")
	}
	for _, p := range pairs {
		bm, hm := runs[p]["base"].Metrics, runs[p]["head"].Metrics
		for name, bv := range bm {
			hv, ok := hm[name]
			if !ok {
				continue
			}
			s := rep.Metrics[name]
			if s == nil {
				s = &summary{Unit: bv.Unit, Better: better[name], EndToEnd: endToEnd[name]}
				rep.Metrics[name] = s
			}
			s.Base.Values = append(s.Base.Values, bv.Value)
			s.Head.Values = append(s.Head.Values, hv.Value)
			s.Pairs++
			if (s.Better == "lower" && hv.Value < bv.Value) || (s.Better == "higher" && hv.Value > bv.Value) {
				s.HeadWins++
			}
		}
	}
	for _, s := range rep.Metrics {
		s.Base.Median, s.Base.IQR = medianIQR(s.Base.Values)
		s.Head.Median, s.Head.IQR = medianIQR(s.Head.Values)
		if s.Base.Median != 0 {
			s.Ratio = s.Head.Median / s.Base.Median
		}
		shift := s.Base.Median - s.Head.Median // positive: head is lower
		if s.Better == "higher" {
			shift = -shift
		}
		s.ShiftExceedsBaseIQR = s.Better != "" && shift > s.Base.IQR
	}
	return rep, nil
}

// medianIQR returns the median and the interquartile range of vs, with
// quantiles interpolated linearly between order statistics.
func medianIQR(vs []float64) (median, iqr float64) {
	s := slices.Clone(vs)
	slices.Sort(s)
	return quantile(s, 0.5), quantile(s, 0.75) - quantile(s, 0.25)
}

// quantile of sorted s at q in [0, 1].
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
