package server

// Shared-cache-tier endpoints: each worker's serve engine hosts the cache
// side of the peer protocol (internal/rcache/peer) on its main listener, so
// peer traffic shares the admission path — and the shedding behavior — of
// everything else the worker does. An overloaded worker sheds peer ops with
// 503 and the requester degrades to its local tiers; that is the designed
// outcome, not an error.
//
//	POST /v1/cluster/cache/get  framed PeerGetPayload → framed PeerEntryPayload
//	POST /v1/cluster/cache/put  framed PeerPutPayload → JSON ack
//	POST /v1/cluster/cachemap   JSON PeerMap push from the coordinator
//
// Fencing: get and put carry the sender's ring epoch; a sender older than
// this worker's map is refused with 409 (a zombie must not read or seed
// entries under stale routing). Map pushes are refused unless strictly
// newer, making replayed or reordered pushes harmless.

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"pallas/internal/cluster"
	"pallas/internal/failpoint"
)

// peerAdmitWait bounds how long a peer cache op may wait for admission:
// requesters run under a ~250ms per-op deadline, so queueing longer than
// this only serves answers nobody is waiting for.
const peerAdmitWait = 150 * time.Millisecond

// admitPeerOp runs the shared admission path with the peer-op deadline.
// It reports false after answering the request (shed) itself.
func (s *Server) admitPeerOp(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	if err := s.ctrl.Acquire(r.Context(), time.Now().Add(peerAdmitWait)); err != nil {
		s.shedForReason(w, err)
		s.syncGauges()
		return nil, false
	}
	admitted := time.Now()
	return func() {
		s.ctrl.Release(time.Since(admitted))
		s.syncGauges()
	}, true
}

// handleCacheGet answers one peer's entry fetch from the local tiers.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.refuseDraining(w) {
		return
	}
	var get cluster.PeerGetPayload
	if err := cluster.DecodeFrame(http.MaxBytesReader(w, r.Body, s.maxBody), cluster.FramePeerGet, &get); err != nil {
		s.failPeerFrame(w, err)
		return
	}
	if get.Key == "" {
		s.fail(w, http.StatusBadRequest, "key is required")
		return
	}
	release, ok := s.admitPeerOp(w, r)
	if !ok {
		return
	}
	defer release()
	entry, found, stale := s.peers.ServeGet(get.Key, get.Epoch)
	if stale {
		s.fail(w, http.StatusConflict, "stale peer epoch %d (ours is %d)", get.Epoch, s.peers.Epoch())
		return
	}
	// peer-serve models the answering side going bad: corrupt mangles the
	// entry *content* before framing (the frame CRC stays valid — only the
	// requester's content-sum verification can catch it), drop severs the
	// connection, drip trickles the frame into the requester's deadline.
	f := failpoint.Net(failpoint.PeerServe, get.Key)
	if f.Act == failpoint.NetCorrupt && found {
		entry = failpoint.CorruptJSON(entry)
	}
	res := cluster.PeerEntryPayload{Key: get.Key, Found: found, Entry: entry, Epoch: s.peers.Epoch()}
	w.Header().Set("Content-Type", "application/octet-stream")
	switch f.Act {
	case failpoint.NetDrop:
		dropConn(w)
	case failpoint.NetDup:
		if frame, err := cluster.EncodeFrame(cluster.FramePeerEntry, res); err == nil {
			w.Write(frame)
			w.Write(frame) // trailing bytes past the first frame are ignored
		}
	case failpoint.NetDrip:
		frame, err := cluster.EncodeFrame(cluster.FramePeerEntry, res)
		if err != nil {
			s.fail(w, http.StatusInternalServerError, "encode entry: %v", err)
			return
		}
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
	default:
		cluster.WriteFrame(w, cluster.FramePeerEntry, res)
	}
}

// handleCachePut applies one peer's replicated write (replication, hinted
// handoff drain, or read repair) to the local tiers after verification.
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.refuseDraining(w) {
		return
	}
	var put cluster.PeerPutPayload
	if err := cluster.DecodeFrame(http.MaxBytesReader(w, r.Body, s.maxBody), cluster.FramePeerPut, &put); err != nil {
		s.failPeerFrame(w, err)
		return
	}
	if put.Key == "" || len(put.Entry) == 0 {
		s.fail(w, http.StatusBadRequest, "key and entry are required")
		return
	}
	release, ok := s.admitPeerOp(w, r)
	if !ok {
		return
	}
	defer release()
	stale, err := s.peers.ServePut(put.Key, put.Entry, put.Epoch)
	if stale {
		s.fail(w, http.StatusConflict, "stale peer epoch %d (ours is %d)", put.Epoch, s.peers.Epoch())
		return
	}
	if err != nil {
		// A refused entry (rot) is the sender's problem; the
		// refusal itself worked.
		s.fail(w, http.StatusBadRequest, "put refused: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// handleCacheMap accepts the coordinator's peer-map push. The tier enforces
// epoch monotonicity; a refused (not-newer) push answers applied=false with
// 200 — replay and reorder are expected, not errors.
func (s *Server) handleCacheMap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var pm cluster.PeerMap
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody)).Decode(&pm); err != nil {
		s.fail(w, http.StatusBadRequest, "bad peer map: %v", err)
		return
	}
	applied := s.peers.Update(pm)
	writeJSON(w, http.StatusOK, map[string]any{
		"applied": applied,
		"epoch":   s.peers.Epoch(),
	})
}

// failPeerFrame maps a frame decode error to its status (mirrors
// handleClusterUnit).
func (s *Server) failPeerFrame(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	switch {
	case errors.Is(err, cluster.ErrOversized) || errors.As(err, &tooBig):
		s.fail(w, http.StatusRequestEntityTooLarge, "frame too large: %v", err)
	default:
		s.fail(w, http.StatusBadRequest, "bad frame: %v", err)
	}
}
