package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring mapping cache keys to peer addresses — the
// routing of the shared peer cache tier (internal/rcache/peer). Each member
// is placed at ringReplicas pseudo-random points; a key is owned by the
// first member point at or after the key's point. The properties the tier
// relies on:
//
//   - stability: the same key maps to the same live member across runs, so
//     every peer computes the same owners for an entry;
//   - minimal disruption: removing a member only re-homes the keys it
//     owned; every other key keeps its owner.
//
// Ring is not safe for concurrent use; its user guards it with its own
// mutex.
type Ring struct {
	replicas int
	points   []ringPoint // sorted by hash
	members  map[string]bool
}

type ringPoint struct {
	hash   uint64
	member string
}

// ringReplicas is the default virtual-node count per member: enough to keep
// the largest/smallest member load ratio near 1 for single-digit clusters.
const ringReplicas = 64

// NewRing builds a ring over the given members.
func NewRing(members ...string) *Ring {
	r := &Ring{replicas: ringReplicas, members: map[string]bool{}}
	for _, m := range members {
		r.Add(m)
	}
	return r
}

func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Add inserts a member (no-op if present).
func (r *Ring) Add(member string) {
	if r.members[member] {
		return
	}
	r.members[member] = true
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, ringPoint{
			hash:   ringHash(member + "#" + strconv.Itoa(i)),
			member: member,
		})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a member and its points (no-op if absent).
func (r *Ring) Remove(member string) {
	if !r.members[member] {
		return
	}
	delete(r.members, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Owner returns the member owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}

// Owners returns the first n distinct members encountered walking the ring
// clockwise from key's point: the key's replica set, in preference order.
// The first element is Owner(key); successors are the natural re-home
// targets if it fails, which is what makes the set stable under membership
// churn. Fewer than n members on the ring returns them all.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for range r.points {
		if i == len(r.points) {
			i = 0
		}
		m := r.points[i].member
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
			if len(out) == n {
				break
			}
		}
		i++
	}
	return out
}

// Members returns the current member set (sorted, for deterministic
// reporting).
func (r *Ring) Members() []string {
	out := make([]string, 0, len(r.members))
	for m := range r.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }
