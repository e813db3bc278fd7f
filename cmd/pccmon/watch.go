// Live terminal view: `pccmon -watch URL` polls a serving monitor's
// /debug/vars endpoint (bare or per-tenant, e.g.
// http://host:6060/t/alpha/debug/vars) and renders a compact refresh
// of the sliding-window rates the windowed recorder computes
// server-side: installs/s, packets/s, reject reasons, and windowed
// p99 dispatch latency per filter owner. No state accumulates in the
// watcher — every line is the server's own window, so a freshly
// started watch shows the same numbers a long-running one does.
package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/kernel"
	"repro/internal/telemetry"
)

// varsDoc is the subset of /debug/vars the watcher renders.
type varsDoc struct {
	Tenant         string             `json:"tenant"`
	UptimeSeconds  float64            `json:"uptime_seconds"`
	TrafficPackets int64              `json:"traffic_packets"`
	Telemetry      telemetry.Snapshot `json:"telemetry"`
}

// fetchVars polls one /debug/vars document.
func fetchVars(url string) (*varsDoc, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var doc varsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decode %s: %w", url, err)
	}
	return &doc, nil
}

// renderWatch formats one refresh of the live view.
func renderWatch(doc *varsDoc) string {
	var b strings.Builder
	s := &doc.Telemetry
	fmt.Fprintf(&b, "tenant %s  up %s  packets %d\n",
		doc.Tenant, (time.Duration(doc.UptimeSeconds) * time.Second).Round(time.Second), doc.TrafficPackets)
	fmt.Fprintf(&b, "  installs/s %8.1f   rejects/s %8.1f   packets/s %10.1f\n",
		s.Rates[kernel.MetricInstalled], s.Rates[kernel.MetricRejected], s.Rates[kernel.MetricPackets])

	if reasons := s.LabeledRates[kernel.MetricRejects]; len(reasons) > 0 {
		keys := make([]string, 0, len(reasons))
		for k := range reasons {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString("  reject reasons (events/s):")
		for _, k := range keys {
			fmt.Fprintf(&b, "  %s=%.1f", k, reasons[k])
		}
		b.WriteString("\n")
	}

	if owners := s.LabeledHistograms[kernel.MetricFilterLatency]; len(owners) > 0 {
		keys := make([]string, 0, len(owners))
		for k := range owners {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString("  windowed dispatch p99 by owner (µs):\n")
		for _, k := range keys {
			h := owners[k]
			fmt.Fprintf(&b, "    %-14s %9.3f  (%.0f runs/s)\n", k, h.WindowP99*1e6, h.WindowRate)
		}
	}
	return b.String()
}

// runWatch polls url every interval and prints the live view; count
// bounds the refresh count (0 = forever). The URL should point at a
// /debug/vars endpoint; a bare server address gets the default
// tenant's path appended.
func runWatch(url string, interval time.Duration, count int) error {
	if !strings.Contains(url, "/debug/vars") {
		url = strings.TrimRight(url, "/") + "/debug/vars"
	}
	if !strings.HasPrefix(url, "http") {
		url = "http://" + url
	}
	for i := 0; count <= 0 || i < count; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		doc, err := fetchVars(url)
		if err != nil {
			return err
		}
		fmt.Printf("-- %s --\n%s", time.Now().Format("15:04:05"), renderWatch(doc))
	}
	return nil
}
