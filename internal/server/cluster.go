package server

// Cluster-worker endpoints: the same Server that fronts /v1/analyze also
// speaks the coordinator's framed wire protocol, so a worker process is
// just `pallas serve` with an advertised address — one admission-control
// path, one cache for both kinds of traffic.
//
//	POST /v1/cluster/unit  one framed unit assignment → one framed result
//	GET  /v1/cluster/ping  heartbeat (JSON; 503 while draining)
//
// Unit dispatches pass through the server's admission controller like any
// analyze request: an overloaded worker sheds with 503 + Retry-After, which
// the coordinator turns into backpressure (requeue without burning a retry,
// pause the worker) instead of an eviction.

import (
	"errors"
	"net/http"
	"time"

	"pallas"
	"pallas/internal/cluster"
	"pallas/internal/failpoint"
	"pallas/internal/guard"
	"pallas/internal/rcache"
)

// dropConn abandons an HTTP exchange mid-flight by hijacking and closing
// the underlying connection — the worker-side network-fault injection for
// "the link died": the coordinator sees a transport error, not a status
// code. Falls back to an empty 500 when the ResponseWriter cannot hijack.
func dropConn(w http.ResponseWriter) {
	if hj, ok := w.(http.Hijacker); ok {
		if conn, _, err := hj.Hijack(); err == nil {
			conn.Close()
			return
		}
	}
	w.WriteHeader(http.StatusInternalServerError)
}

// SetAdvertiseAddr records the address this worker reports in result frames
// (the address the coordinator knows it by). The shared cache tier uses the
// same identity, so coordinator-pushed peer maps that include this worker
// exclude it from its own remote operations.
func (s *Server) SetAdvertiseAddr(addr string) {
	s.advertise.Store(addr)
	s.peers.SetSelf(addr)
}

func (s *Server) advertiseAddr() string {
	if v, ok := s.advertise.Load().(string); ok {
		return v
	}
	return ""
}

// handleClusterPing is the coordinator's liveness probe. Draining answers
// 503 so the coordinator stops assigning and re-homes this worker's queue
// before the process exits.
func (s *Server) handleClusterPing(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	// worker-ping=drop simulates a partition on the liveness plane only:
	// heartbeats vanish while unit traffic still flows — the asymmetric
	// half-failure that distinguishes eviction bugs from crash bugs.
	if f := failpoint.Net(failpoint.WorkerPing, ""); f.Act == failpoint.NetDrop {
		dropConn(w)
		return
	}
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, cluster.PongPayload{
		Status:        status,
		InFlight:      int64(s.ctrl.InFlight()),
		QueueDepth:    s.ctrl.QueueDepth(),
		UnitsDone:     s.clusterDone.Load(),
		UptimeSeconds: int64(time.Since(s.start).Seconds()),
	})
}

// handleClusterUnit runs one coordinator assignment: framed AssignPayload
// in, framed ResultPayload out. Malformed frames are 400, oversized 413,
// admission sheds 503 — everything else, including failed analyses, is a
// 200 carrying a result frame so the coordinator can tell "this input
// fails" (terminal) from "this worker is sick" (requeue elsewhere).
func (s *Server) handleClusterUnit(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.refuseDraining(w) {
		return
	}
	var assign cluster.AssignPayload
	if err := cluster.DecodeFrame(http.MaxBytesReader(w, r.Body, s.maxBody), cluster.FrameAssign, &assign); err != nil {
		var tooBig *http.MaxBytesError
		switch {
		case errors.Is(err, cluster.ErrOversized) || errors.As(err, &tooBig):
			s.fail(w, http.StatusRequestEntityTooLarge, "frame too large: %v", err)
		default:
			s.fail(w, http.StatusBadRequest, "bad frame: %v", err)
		}
		return
	}
	if assign.Source == "" {
		s.fail(w, http.StatusBadRequest, "source is required")
		return
	}
	s.mRequests.Inc()
	s.gInFlight.Add(1)
	defer func() {
		s.gInFlight.Add(-1)
		s.hLatency.Observe(time.Since(started).Seconds())
	}()

	// Admission control is the worker's own backpressure authority: the
	// coordinator's pipeline depth is a hint, this queue is the law.
	var deadline time.Time
	if s.deadline > 0 {
		deadline = started.Add(s.deadline)
	}
	if err := s.ctrl.Acquire(r.Context(), deadline); err != nil {
		s.shedForReason(w, err)
		s.syncGauges()
		return
	}
	admitted := time.Now()
	defer func() {
		s.ctrl.Release(time.Since(admitted))
		s.syncGauges()
	}()
	s.syncGauges()

	unit := pallas.Unit{Name: assign.Unit, Source: assign.Source, Spec: assign.Spec}
	entry, hit, err := s.clusterEntry(unit)
	if err != nil && errors.Is(err, rcache.ErrPersist) && entry != nil {
		s.mPersistFault.Inc()
		err = nil
	}
	if err != nil {
		s.mErrors.Inc()
		s.writeResultFrame(w, assign.Unit, cluster.ResultPayload{
			Unit: assign.Unit, Hash: assign.Hash, Attempt: assign.Attempt,
			Status: "failed", Err: err.Error(), Transient: guard.Transient(err),
			Worker: s.advertiseAddr(), Epoch: assign.Epoch,
		})
		return
	}
	s.clusterDone.Add(1)
	status, cacheState := "ok", "miss"
	if entry.Degraded {
		status = "degraded"
	}
	if hit {
		cacheState = "hit"
	}
	report, paths, sum := entry.Report, entry.Paths, entry.Sum
	if sum == "" {
		// Entry predates checksumming (old persistent tier): attest the
		// bytes as read, so at least the hops from here are covered.
		sum = rcache.ContentSum(report, paths)
	}
	// result-corrupt mangles the content bytes *after* the checksum is
	// fixed — a worker whose frames are intact but whose payload is a lie.
	// Only the end-to-end Sum, not the frame CRC, can catch this. The
	// mangling must stay valid JSON (the payload is re-marshaled into the
	// result frame), hence CorruptJSON rather than a raw byte flip.
	if f := failpoint.Net(failpoint.ResultCorrupt, assign.Unit); f.Act == failpoint.NetCorrupt {
		report = failpoint.CorruptJSON(report)
	}
	s.writeResultFrame(w, assign.Unit, cluster.ResultPayload{
		Unit: assign.Unit, Hash: assign.Hash, Attempt: assign.Attempt,
		Status: status, Report: report, Paths: paths,
		Diagnostics: entry.Diagnostics, Degraded: entry.Degraded,
		Warnings: entry.Warnings, Cache: cacheState, Worker: s.advertiseAddr(),
		Epoch: assign.Epoch, Sum: sum,
	})
}

// clusterEntry produces a cache entry with path bytes for one unit. A
// cached entry stored by plain serve traffic has no Paths (reports only);
// such a hit is upgraded in place — recomputed with paths and re-stored —
// so the shared cache converges to the richer shape.
func (s *Server) clusterEntry(unit pallas.Unit) (*rcache.Entry, bool, error) {
	key := s.analyzer.CacheKey(unit)
	entry, hit, err := s.cache.GetOrCompute(key, func() (*rcache.Entry, error) {
		return s.computeUnit(unit, key, true)
	})
	if err != nil {
		return entry, hit, err
	}
	// A hit that carries a checksum must still match it: the entry may have
	// crossed a disk tier, a process restart, or a torn write since the
	// analysis attested it. On mismatch the entry is not trusted — fall
	// through to a fresh analysis, same as a path-less hit.
	if hit && entry.Sum != "" && entry.Sum != rcache.ContentSum(entry.Report, entry.Paths) {
		s.mSumMismatch.Inc()
	} else if !hit || len(entry.Paths) > 0 {
		return entry, hit, nil
	}
	upgraded, err := s.analyzeUnit(unit, key, true)
	if err != nil {
		return nil, false, err
	}
	if perr := s.cache.Put(upgraded); perr != nil && !errors.Is(perr, rcache.ErrPersist) {
		return nil, false, perr
	}
	s.peers.ReplicateRemote(upgraded)
	return upgraded, false, nil
}

// writeResultFrame frames and writes a result, with the worker-send
// network-fault injection point in front: the four ways a result's trip
// home can go wrong (link death, bit corruption, duplicate delivery, a
// trickling connection), each of which the coordinator must absorb without
// changing the merged bytes.
func (s *Server) writeResultFrame(w http.ResponseWriter, unit string, res cluster.ResultPayload) {
	w.Header().Set("Content-Type", "application/octet-stream")
	f := failpoint.Net(failpoint.WorkerSend, unit)
	if f.Act == failpoint.NetNone {
		cluster.WriteFrame(w, cluster.FrameResult, res)
		return
	}
	frame, err := cluster.EncodeFrame(cluster.FrameResult, res)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "encode result: %v", err)
		return
	}
	switch f.Act {
	case failpoint.NetDrop:
		dropConn(w)
	case failpoint.NetCorrupt:
		w.Write(failpoint.Corrupt(frame)) // frame CRC catches this hop
	case failpoint.NetDup:
		w.Write(frame)
		w.Write(frame) // trailing bytes past the first frame are ignored
	case failpoint.NetDrip:
		for off := 0; off < len(frame); off += 64 {
			end := off + 64
			if end > len(frame) {
				end = len(frame)
			}
			if _, err := w.Write(frame[off:end]); err != nil {
				return
			}
			if fl, ok := w.(http.Flusher); ok {
				fl.Flush()
			}
			time.Sleep(f.Sleep)
		}
	}
}
