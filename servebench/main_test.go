package main

import (
	"testing"
	"time"
)

// TestEndToEndWindows: one slow second among ten moves neither the
// windowed p50 nor the throughput, and a phase too short for windows is
// pooled.
func TestEndToEndWindows(t *testing.T) {
	var samples []sample
	for i := 0; i < 10*windowSamples; i++ {
		lat := time.Millisecond
		if i/windowSamples == 3 {
			lat = 5 * time.Millisecond
		}
		done := time.Duration(i+1) * 10 * time.Second / time.Duration(10*windowSamples)
		samples = append(samples, sample{lat: lat, done: done})
	}
	m := endToEnd(samples, 10*time.Second, []float64{1, 3, 2})
	if got := m["p50_ms"].Value; got != 1 {
		t.Errorf("p50 = %v ms, want 1", got)
	}
	if got := m["throughput_rps"].Value; got < 190 || got > 210 {
		t.Errorf("throughput = %v/s, want about %d", got, windowSamples)
	}
	if got := m["setup_s"].Value; got != 2 {
		t.Errorf("setup = %v s, want the median 2", got)
	}

	pooled := endToEnd(samples[:10], 10*time.Second, []float64{1})
	if got := pooled["p90_ms"].Value; got != 1 {
		t.Errorf("pooled p90 = %v ms, want 1", got)
	}
}
