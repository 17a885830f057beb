// Package flashsim holds the flash device model behind the paper's DiskSim +
// Microsoft Research SSD extension setup (§V-A). What the paper relies on is
// a FIFO queue per flash module with a fixed per-block service time (one 8 KB
// read = 0.132507 ms in the MSR parameter set); that queue is
// retrieval.Online, the device timeline the engine schedules on, and this
// package supplies its two latency constants. The rest of the package models
// the inside of one module (ssd.go: channels, planes, a page-mapping FTL and
// garbage collection) and an array of such modules (ssdarray.go), for the
// experiments that ask when the fixed-latency abstraction stops holding.
//
// Time is in milliseconds throughout, matching the paper's tables.
package flashsim

// DefaultReadLatency is the MSR SSD-extension time for one 8 KB read, ms.
const DefaultReadLatency = 0.132507

// DefaultWriteLatency is a representative 8 KB flash program time, ms.
const DefaultWriteLatency = 0.350
