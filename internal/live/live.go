// Package live is the live-encode session engine: long-lived streaming
// sessions whose frames arrive on a virtual-tick clock, are encoded GOP
// by GOP (optionally at several ABR ladder rungs sharing one open-loop
// analysis pass), and can switch codec/preset mid-stream at GOP
// boundaries without breaking decodability.
//
// Everything is modeled. Time is virtual ticks on the modeled machine's
// clock: frame i of an FPS-rate session arrives at tick (i+1)*ClockHz/FPS,
// and encoding a GOP advances the pipeline by its summed modeled
// instructions at the nominal IPC. Deadline misses, backlog, and the
// degrade policy (shed preset effort, then drop) all derive from that
// arithmetic — so the same spec fed the same way produces byte-identical
// per-GOP digests on any host, at any worker count, with or without
// ladder sharing, and across a failover resume (ResumeToken). That is
// the property the scheduler-invariance and cluster-failover tests pin.
package live
