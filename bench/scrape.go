package main

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// exposition is a scraped Prometheus text exposition: series (family
// member plus label set) to value, summed over every scraped process.
type exposition map[string]float64

// scrape reads and sums the /metrics expositions of the bases.
func scrape(c *http.Client, bases []string) (exposition, error) {
	e := exposition{}
	for _, base := range bases {
		resp, err := c.Get(base + "/metrics")
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", base, err)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				continue
			}
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil || math.IsNaN(v) {
				continue
			}
			e[line[:i]] += v
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("scraping %s: %w", base, err)
		}
	}
	return e, nil
}

// sum adds the series of the named family member whose label set
// contains every given `key="value"` pair.
func (e exposition) sum(name string, labels ...string) float64 {
	var total float64
	for series, v := range e {
		n, ls, _ := strings.Cut(series, "{")
		if n != name {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(ls, l) {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// since returns the per-series increase from an earlier scrape.
func (e exposition) since(earlier exposition) exposition {
	d := make(exposition, len(e))
	for k, v := range e {
		d[k] = v - earlier[k]
	}
	return d
}
