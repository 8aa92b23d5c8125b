package main

import (
	"fmt"
	"time"

	"sos"
	"sos/internal/id"
	"sos/internal/msg"
	"sos/internal/pki"
	"sos/internal/secure"
	"sos/internal/sim"
	"sos/internal/wire"
)

// The msg, pki, secure and wire layers are plain functions called from
// inside adhoc and message; there is no interface to stand a shim on. The
// traced run prices them instead: it calls their public functions
// directly, on the shapes the workload just produced (payload size, mean
// frame size, beacon entry count, messages per batch), a fixed number of
// times, and reports the median of a few batches as the unit cost. The
// ledger multiplies unit cost by the counts the shims and Stats() give.

// shapes is what calibration needs to know about the workload.
type shapes struct {
	payloadBytes  int // post body size
	frameBytes    int // mean session frame size
	beaconEntries int // summary entries in one discovery beacon
	msgsPerBatch  int // messages in one Batch frame
}

// unitCosts are calibrated per-call costs in microseconds.
type unitCosts struct {
	sign, verify          float64 // msg.Sign, msg.VerifyWithKey
	pkiVerify             float64 // pki.Verifier.VerifyFor
	sealOpen, establish   float64 // Session seal+open of one frame; NewSession
	beaconEnc, beaconDec  float64 // wire encode / decode of one beacon
	batchRoundTrip        float64 // wire encode+decode of one batch
	contactSweepPerTickUS float64 // sim.ContactIndex.Sweep, 1 000 nodes
}

const (
	calibBatches = 5  // medians are over this many batches
	calibCalls   = 40 // calls per batch
)

// unitCost times calibCalls calls of fn, calibBatches times, and returns
// the median batch's per-call cost in microseconds.
func unitCost(fn func() error) (float64, error) {
	per := make([]float64, 0, calibBatches)
	for b := 0; b < calibBatches; b++ {
		start := time.Now()
		for i := 0; i < calibCalls; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/1e3/calibCalls)
	}
	return median(per), nil
}

// calibrate prices the non-interposable layers on the given shapes.
func calibrate(in *inputs, sh shapes, withSim bool) (unitCosts, error) {
	var u unitCosts
	ca, err := sos.NewCA("calibration-root", nil)
	if err != nil {
		return u, fmt.Errorf("calibration CA: %w", err)
	}
	cloud := sos.NewCloud(ca, nil)
	alice, err := sos.BootstrapWithRand(cloud, "calib-alice", in.entropy("calib-alice"))
	if err != nil {
		return u, fmt.Errorf("calibration bootstrap: %w", err)
	}
	bob, err := sos.BootstrapWithRand(cloud, "calib-bob", in.entropy("calib-bob"))
	if err != nil {
		return u, fmt.Errorf("calibration bootstrap: %w", err)
	}
	verifier, err := pki.NewVerifier(alice.RootDER, time.Now)
	if err != nil {
		return u, fmt.Errorf("calibration verifier: %w", err)
	}

	m := &msg.Message{
		Author: alice.Ident.User, Seq: 1, Kind: msg.KindPost,
		Created: time.Now(), Payload: in.payload(0, max(sh.payloadBytes, 1)),
		CertDER: alice.Cert.DER,
	}
	if u.sign, err = unitCost(func() error { return m.Sign(alice.Ident) }); err != nil {
		return u, err
	}
	pub := alice.Ident.Public()
	if u.verify, err = unitCost(func() error { return m.VerifyWithKey(pub) }); err != nil {
		return u, err
	}
	if u.pkiVerify, err = unitCost(func() error {
		_, err := verifier.VerifyFor(m.CertDER, m.Author)
		return err
	}); err != nil {
		return u, err
	}

	ctx := []byte("calibration")
	sa, err := secure.NewSession(alice.Ident.Key, bob.Ident.Public(), ctx)
	if err != nil {
		return u, err
	}
	sb, err := secure.NewSession(bob.Ident.Key, alice.Ident.Public(), ctx)
	if err != nil {
		return u, err
	}
	frame := in.payload(1, max(sh.frameBytes, 1))
	if u.sealOpen, err = unitCost(func() error {
		sealed, err := sa.Seal(frame, nil)
		if err != nil {
			return err
		}
		_, err = sb.Open(sealed, nil)
		return err
	}); err != nil {
		return u, err
	}
	if u.establish, err = unitCost(func() error {
		_, err := secure.NewSession(alice.Ident.Key, bob.Ident.Public(), ctx)
		return err
	}); err != nil {
		return u, err
	}

	beacon := &wire.Advertisement{Peer: "calib-alice-device", Gen: 1, Summary: make(map[id.UserID]uint64)}
	for i := 0; i < sh.beaconEntries; i++ {
		beacon.Summary[id.NewUserID(fmt.Sprintf("calib-author-%d", i))] = uint64(i + 1)
	}
	var encBeacon []byte
	if u.beaconEnc, err = unitCost(func() error {
		encBeacon, err = wire.Encode(beacon)
		return err
	}); err != nil {
		return u, err
	}
	if u.beaconDec, err = unitCost(func() error {
		_, err := wire.Decode(encBeacon)
		return err
	}); err != nil {
		return u, err
	}

	batch := &wire.Batch{}
	for i := 0; i < max(sh.msgsPerBatch, 1); i++ {
		mm := m.Clone()
		mm.Seq = uint64(i + 1)
		batch.Msgs = append(batch.Msgs, mm)
	}
	buf := wire.GetBuffer()
	defer buf.Free()
	if u.batchRoundTrip, err = unitCost(func() error {
		enc, err := wire.AppendEncode(buf.B[:0], batch)
		if err != nil {
			return err
		}
		buf.B = enc
		_, err = wire.Decode(enc)
		return err
	}); err != nil {
		return u, err
	}

	if withSim {
		const samples = 8
		fleet := sim.ContactBenchFleet(1000, samples, in.seed)
		ix := sim.NewContactIndex(fleet.RangeM)
		t := 0
		if u.contactSweepPerTickUS, err = unitCost(func() error {
			ix.Sweep(fleet.Positions[t%samples], fleet.Active[t%samples], func(_, _ int32) {})
			t++
			return nil
		}); err != nil {
			return u, err
		}
	}
	return u, nil
}
