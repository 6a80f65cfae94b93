package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// scrape is one parsed Prometheus text exposition: every sample keyed by
// its series, the metric name followed by the label set exactly as
// exposed (`slicc_http_requests_total{route="/healthz",method="GET",code="200"}`).
type scrape map[string]float64

// parseProm reads the text exposition format (0.0.4): comment lines are
// skipped and every sample line is `series value [timestamp]`.
func parseProm(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Label values may hold spaces, so split after the closing brace.
		cut := strings.LastIndexByte(line, '}')
		if cut < 0 {
			cut = strings.IndexByte(line, ' ') - 1
		}
		if cut < 0 || cut+1 >= len(line) {
			return nil, fmt.Errorf("prometheus text line %d: no value in %q", n, line)
		}
		series, rest := line[:cut+1], strings.Fields(line[cut+1:])
		if len(rest) == 0 {
			return nil, fmt.Errorf("prometheus text line %d: no value in %q", n, line)
		}
		v, err := strconv.ParseFloat(rest[0], 64)
		if err != nil {
			return nil, fmt.Errorf("prometheus text line %d: %w", n, err)
		}
		out[series] = v
	}
	return out, sc.Err()
}

// delta returns after minus before for every series in after; a series
// absent before counts from zero (counters appear on first use).
func delta(before, after scrape) scrape {
	d := scrape{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// labels splits a series key into its metric name and label map.
func labels(series string) (name string, ls map[string]string) {
	open := strings.IndexByte(series, '{')
	if open < 0 {
		return series, nil
	}
	name, ls = series[:open], map[string]string{}
	body := strings.TrimSuffix(series[open+1:], "}")
	for body != "" {
		eq := strings.IndexByte(body, '=')
		if eq < 0 || eq+1 >= len(body) || body[eq+1] != '"' {
			break
		}
		key := body[:eq]
		i := eq + 2
		var val strings.Builder
		for ; i < len(body) && body[i] != '"'; i++ {
			if body[i] == '\\' && i+1 < len(body) {
				i++
				switch body[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(body[i])
				}
				continue
			}
			val.WriteByte(body[i])
		}
		ls[key] = val.String()
		body = strings.TrimPrefix(body[min(i+1, len(body)):], ",")
	}
	return name, ls
}

// sum adds every series of the named metric whose labels pass keep (nil
// keeps all).
func (s scrape) sum(name string, keep func(map[string]string) bool) float64 {
	var total float64
	for _, k := range s.keys() {
		n, ls := labels(k)
		if n == name && (keep == nil || keep(ls)) {
			total += s[k]
		}
	}
	return total
}

// keys lists the series in sorted order so float sums are reproducible.
func (s scrape) keys() []string {
	ks := make([]string, 0, len(s))
	for k := range s {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
