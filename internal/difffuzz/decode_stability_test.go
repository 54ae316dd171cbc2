package difffuzz

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// decodeStabilityDigest pins Decode(0..1023) over the axes listed in
// TestDecodeStability. Retiring an axis must leave it unchanged: a retired
// draw is consumed and discarded in place, so every later draw keeps its
// ordinal and every surviving axis decodes exactly as before.
const decodeStabilityDigest = "824417efe4691dee747a1a084e8576d1c508ccb3308c110144dbbe2d34af5771"

// TestDecodeStability hashes a test-local projection of the decoded
// cases: kernel and dimension, topology, scheduler, refresh, time scaling,
// faults, mitigation, checkpoint and cores. The projection is
// spelled out field by field rather than taken from Case's JSON, so adding
// or removing a Case field cannot move the digest; only a change in what
// the surviving axes decode to can.
func TestDecodeStability(t *testing.T) {
	h := sha256.New()
	for seed := uint64(0); seed < 1024; seed++ {
		c := Decode(seed)
		f := c.Faults
		fmt.Fprintf(h, "%d|%s/%d|%d/%d/%s|%s|%v|%v|%d/%d/%g/%g/%g/%g/%g/%v/%d|%s|%d|%d\n",
			seed, c.Kernel, c.KernelDim, c.Channels, c.Ranks, c.Interleave, c.Scheduler,
			c.Refresh, c.TimeScaling,
			f.DisturbThreshold, f.DisturbJitter, f.TransientRate, f.StuckAtRate,
			f.LinkFailRate, f.LinkCorruptRate, f.LinkDropRate, f.Recovery, f.Seed,
			c.Mitigation, c.CheckpointFrac, c.Cores)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != decodeStabilityDigest {
		t.Errorf("Decode(0..1023) digest %s, want %s: a surviving axis now decodes differently", got, decodeStabilityDigest)
	}
}
