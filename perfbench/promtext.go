package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promSample maps a series ("name" or "name_bucket{le=\"0.1\"}") to its
// value in one /metrics scrape.
type promSample map[string]float64

// parseProm reads the Prometheus text exposition: comment lines are
// skipped, every other line is "<series> <value>".
func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta is after − before per series; series absent before count from 0.
func (after promSample) delta(before promSample) promSample {
	out := make(promSample, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// scrape fetches and parses baseURL/metrics.
func scrape(hc *http.Client, baseURL string) (promSample, error) {
	resp, err := hc.Get(baseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseProm(resp.Body)
}
