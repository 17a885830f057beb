package core

import "flashqos/internal/flashsim"

// MemBackend is the per-block read/write service-time pair the engine
// prices admission with; zero fields fall back to flashsim's defaults, so
// MemBackend{} is the paper's DiskSim service model (§V).
//
// Deprecated: set Config.ServiceMS and Config.WriteServiceMS instead. The
// type survives only because the read-only benchmark module (bench/) names
// it, as a Config.Backend value and for its default latencies.
type MemBackend struct {
	ReadMS  float64
	WriteMS float64
}

// ReadLatencyMS returns ReadMS, or flashsim's default read latency when unset.
func (b MemBackend) ReadLatencyMS() float64 {
	if b.ReadMS > 0 {
		return b.ReadMS
	}
	return flashsim.DefaultReadLatency
}

// WriteLatencyMS returns WriteMS, or flashsim's default program time when
// unset.
func (b MemBackend) WriteLatencyMS() float64 {
	if b.WriteMS > 0 {
		return b.WriteMS
	}
	return flashsim.DefaultWriteLatency
}

// normalizeService is the single config-normalization point for service
// times: non-positive values fall back to the backend's latencies.
func normalizeService(b MemBackend, readMS, writeMS float64) (read, write float64) {
	if readMS <= 0 {
		readMS = b.ReadLatencyMS()
	}
	if writeMS <= 0 {
		writeMS = b.WriteLatencyMS()
	}
	return readMS, writeMS
}
