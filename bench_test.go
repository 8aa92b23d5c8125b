// Benchmarks regenerating every table and figure of the paper's
// evaluation (§VI, Fig. 4a–4d), plus ablations over the design choices
// DESIGN.md calls out and micro-benchmarks of the security-critical hot
// paths. Figure benchmarks run the complete in-silico field study and
// report the paper's quantities via b.ReportMetric, so
//
//	go test -bench=Fig4 -benchtime=1x
//
// prints the measured series next to wall-clock cost. EXPERIMENTS.md
// records paper-vs-measured for each.
package sos_test

import (
	"crypto/rand"
	"fmt"
	"runtime"
	"testing"
	"time"

	"sos"
	"sos/internal/geo"
	"sos/internal/id"
	"sos/internal/metrics"
	"sos/internal/msg"
	"sos/internal/secure"
	"sos/internal/sim"
	"sos/internal/socialgraph"
	"sos/internal/store"
	"sos/internal/wire"
)

// runGainesville executes the §VI replay once and returns the results.
func runGainesville(b *testing.B, cfg sim.GainesvilleConfig) (*sim.Result, *sim.Gainesville) {
	b.Helper()
	scenario, err := sim.NewGainesville(cfg)
	if err != nil {
		b.Fatalf("NewGainesville: %v", err)
	}
	return runSim(b, scenario.Config), scenario
}

// runSim executes one simulation config and returns its results.
func runSim(b *testing.B, cfg sim.Config) *sim.Result {
	b.Helper()
	s, err := sim.New(cfg)
	if err != nil {
		b.Fatalf("sim.New: %v", err)
	}
	res, err := s.Run()
	if err != nil {
		b.Fatalf("Run: %v", err)
	}
	return res
}

// BenchmarkFig4a_SocialGraph regenerates the §VI-A social-relationship
// statistics (Fig. 4a): density 0.64, average path length 1.3, diameter
// 2, radius 1, transitivity 0.80.
func BenchmarkFig4a_SocialGraph(b *testing.B) {
	var stats socialgraph.Stats
	for i := 0; i < b.N; i++ {
		stats = socialgraph.ComputeStats(socialgraph.Deployment())
	}
	b.ReportMetric(stats.Density, "density")
	b.ReportMetric(stats.AvgPathLength, "avg-path")
	b.ReportMetric(float64(stats.Diameter), "diameter")
	b.ReportMetric(float64(stats.Radius), "radius")
	b.ReportMetric(stats.Transitivity, "transitivity")
}

// BenchmarkFig4b_ActivityMap regenerates the Fig. 4b map data: message
// generation and dissemination events across the 11 km × 8 km area.
func BenchmarkFig4b_ActivityMap(b *testing.B) {
	var created, passed, contacts int
	for i := 0; i < b.N; i++ {
		res, _ := runGainesville(b, sim.GainesvilleConfig{Seed: 1})
		created = len(res.Recorder.Events(geo.EventCreated))
		passed = len(res.Recorder.Events(geo.EventPassed))
		contacts = res.Recorder.ContactCount()
	}
	b.ReportMetric(float64(created), "gen-events")
	b.ReportMetric(float64(passed), "diss-events")
	b.ReportMetric(float64(contacts), "contacts")
}

// BenchmarkFig4c_DelayCDF regenerates the Fig. 4c delay CDFs. Paper:
// All 0.43 ≤ 24 h and 0.90 ≤ 94 h; 1-hop 0.44 ≤ 24 h and 0.92 ≤ 94 h.
func BenchmarkFig4c_DelayCDF(b *testing.B) {
	var all24, all94, one24, one94 float64
	for i := 0; i < b.N; i++ {
		res, _ := runGainesville(b, sim.GainesvilleConfig{Seed: 1})
		all := res.Collector.DelayCDF(metrics.AllHops)
		one := res.Collector.DelayCDF(metrics.OneHop)
		all24, all94 = all.At(24), all.At(94)
		one24, one94 = one.At(24), one.At(94)
	}
	b.ReportMetric(all24, "all-cdf-24h")
	b.ReportMetric(all94, "all-cdf-94h")
	b.ReportMetric(one24, "1hop-cdf-24h")
	b.ReportMetric(one94, "1hop-cdf-94h")
}

// BenchmarkFig4d_DeliveryRatio regenerates the Fig. 4d per-subscription
// delivery ratios. Paper: 0.30 of subscriptions > 0.80 and 0.50 > 0.70
// (All); 0.25 ≥ 0.80 (1-hop); 0.826 of deliveries in one hop.
func BenchmarkFig4d_DeliveryRatio(b *testing.B) {
	var above80, above70, one80, oneHopShare, disseminations float64
	for i := 0; i < b.N; i++ {
		res, scenario := runGainesville(b, sim.GainesvilleConfig{Seed: 1})
		ratiosAll := res.Collector.DeliveryRatios(scenario.Subscriptions, metrics.AllHops)
		ratiosOne := res.Collector.DeliveryRatios(scenario.Subscriptions, metrics.OneHop)
		above80 = metrics.FractionAbove(ratiosAll, 0.80)
		above70 = metrics.FractionAbove(ratiosAll, 0.70)
		one80 = metrics.FractionAtLeast(ratiosOne, 0.80)
		oneHopShare = res.Collector.OneHopShare()
		disseminations = float64(res.Collector.Disseminations())
	}
	b.ReportMetric(above80, "subs-above-0.8")
	b.ReportMetric(above70, "subs-above-0.7")
	b.ReportMetric(one80, "1hop-subs-at-0.8")
	b.ReportMetric(oneHopShare, "1hop-share")
	b.ReportMetric(disseminations, "disseminations")
}

// BenchmarkAblationScheme compares the four routing schemes on an
// identical 3-day workload: deliveries achieved and transfer overhead.
func BenchmarkAblationScheme(b *testing.B) {
	for _, scheme := range []string{"epidemic", "interest", "spray-and-wait", "prophet"} {
		b.Run(scheme, func(b *testing.B) {
			var delivered, frames float64
			for i := 0; i < b.N; i++ {
				res, _ := runGainesville(b, sim.GainesvilleConfig{
					Seed: 7, Days: 3, Scheme: scheme,
				})
				delivered = float64(len(res.Collector.Deliveries(metrics.AllHops)))
				frames = float64(res.MediumStats.FramesDelivered)
			}
			b.ReportMetric(delivered, "deliveries")
			b.ReportMetric(frames, "frames")
		})
	}
}

// BenchmarkAblationDensity explores the paper's closing question —
// behaviour "at higher densities" — by scaling the population.
func BenchmarkAblationDensity(b *testing.B) {
	for _, users := range []int{10, 20, 30} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			var delivered, oneHop float64
			for i := 0; i < b.N; i++ {
				res, _ := runGainesville(b, sim.GainesvilleConfig{
					Seed: 7, Days: 2, Users: users,
				})
				delivered = float64(len(res.Collector.Deliveries(metrics.AllHops)))
				oneHop = res.Collector.OneHopShare()
			}
			b.ReportMetric(delivered, "deliveries")
			b.ReportMetric(oneHop, "1hop-share")
		})
	}
}

// BenchmarkAblationRelayTTL measures the forwarder buffer policy's effect
// on hop mix and overhead (DESIGN.md substitution note).
func BenchmarkAblationRelayTTL(b *testing.B) {
	for _, ttl := range []time.Duration{12 * time.Hour, 24 * time.Hour, 0} {
		name := "unlimited"
		if ttl > 0 {
			name = ttl.String()
		}
		b.Run(name, func(b *testing.B) {
			var oneHop, delivered float64
			for i := 0; i < b.N; i++ {
				scenario, err := sim.NewGainesville(sim.GainesvilleConfig{
					Seed: 7, Days: 3,
				})
				if err != nil {
					b.Fatalf("NewGainesville: %v", err)
				}
				scenario.Config.RelayTTL = ttl
				res := runSim(b, scenario.Config)
				oneHop = res.Collector.OneHopShare()
				delivered = float64(len(res.Collector.Deliveries(metrics.AllHops)))
			}
			b.ReportMetric(oneHop, "1hop-share")
			b.ReportMetric(delivered, "deliveries")
		})
	}
}

// --- micro-benchmarks of the hot paths ---

// BenchmarkSessionSealOpen measures per-frame AEAD cost on the D2D path.
func BenchmarkSessionSealOpen(b *testing.B) {
	aliceIdent, _ := id.NewIdentity(id.NewUserID("alice"), rand.Reader)
	bobIdent, _ := id.NewIdentity(id.NewUserID("bob"), rand.Reader)
	sa, err := secure.NewSession(aliceIdent.Key, bobIdent.Public(), []byte("ctx"))
	if err != nil {
		b.Fatal(err)
	}
	sb, err := secure.NewSession(bobIdent.Key, aliceIdent.Public(), []byte("ctx"))
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err := sa.Seal(payload, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sb.Open(frame, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(payload)))
}

// BenchmarkSessionEstablish measures ECDH + HKDF session setup (both
// directions of one handshake).
func BenchmarkSessionEstablish(b *testing.B) {
	aliceIdent, _ := id.NewIdentity(id.NewUserID("alice"), rand.Reader)
	bobIdent, _ := id.NewIdentity(id.NewUserID("bob"), rand.Reader)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := secure.NewSession(aliceIdent.Key, bobIdent.Public(), []byte("ctx")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMessageSignVerify measures the author-signature path every
// relayed message pays.
func BenchmarkMessageSignVerify(b *testing.B) {
	ident, _ := id.NewIdentity(id.NewUserID("alice"), rand.Reader)
	m := &msg.Message{
		Author: ident.User, Seq: 1, Kind: msg.KindPost,
		Created: time.Now(), Payload: make([]byte, 256),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Sign(ident); err != nil {
			b.Fatal(err)
		}
		if err := m.VerifyWithKey(ident.Public()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnvelopeSealOpen measures end-to-end sealed direct messages.
func BenchmarkEnvelopeSealOpen(b *testing.B) {
	sender, _ := id.NewIdentity(id.NewUserID("alice"), rand.Reader)
	recipient, _ := id.NewIdentity(id.NewUserID("bob"), rand.Reader)
	ps, err := secure.NewPrekeyStore(recipient, recipient.User, secure.PrekeyConfig{})
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env, err := secure.SealEnvelope(nil, sender, recipient.User, recipient.Public(), nil, payload)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := secure.OpenEnvelope(ps, sender.Public(), env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireRoundTrip measures frame codec throughput for a
// representative batch on the pooled encode path the contact hot path
// uses: AppendEncode into a reused buffer, decode with batch messages
// aliasing the input.
func BenchmarkWireRoundTrip(b *testing.B) {
	author := id.NewUserID("alice")
	batch := &wire.Batch{}
	for seq := uint64(1); seq <= 16; seq++ {
		batch.Msgs = append(batch.Msgs, &msg.Message{
			Author: author, Seq: seq, Kind: msg.KindPost,
			Created: time.Unix(1491472800, 0), Payload: make([]byte, 200),
			Sig: make([]byte, 70), CertDER: make([]byte, 500),
		})
	}
	buf := wire.GetBuffer()
	defer buf.Free()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := wire.AppendEncode(buf.B[:0], batch)
		if err != nil {
			b.Fatal(err)
		}
		buf.B = enc
		if _, err := wire.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContactThroughput measures messages synced per contact-second
// between two live nodes whose stores have seen 1k/10k/100k/1M authors —
// the §VI-bounding quantity the delta-sync plane holds flat as the summary
// dictionary grows. Run with -benchtime=1x: each iteration is already a
// complete measured contact (newContactPair, then the posts, averaged
// over the posts). Both nodes record into tracers, so the flight recorder
// is inside the measured budget. Allocations and bytes are read from
// runtime.MemStats across both nodes. The benchmark fails when the curve
// is not flat: growing the store 100× (1k → 100k authors) must not double
// the allocations per synced message, a ratio that holds on any machine.
// The 1M tier is reported only.
func BenchmarkContactThroughput(b *testing.B) {
	allocsPerMsg := make(map[int]float64)
	for _, tier := range []struct{ authors, posts int }{
		{1_000, 200},
		{10_000, 200},
		{100_000, 100}, // preload dominates; keep the total bounded
		{1_000_000, 50},
	} {
		b.Run(fmt.Sprintf("authors=%d", tier.authors), func(b *testing.B) {
			var msgsPerSec, allocs, bytes float64
			payload := make([]byte, 200)
			for i := 0; i < b.N; i++ {
				c := newContactPair(b, tier.authors, sos.NewTracer(0), sos.NewTracer(0))
				runtime.GC()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				start := time.Now()
				for j := 0; j < tier.posts; j++ {
					c.post(b, payload, 30*time.Second)
				}
				elapsed := time.Since(start)
				runtime.ReadMemStats(&after)
				c.close()
				msgsPerSec = float64(tier.posts) / elapsed.Seconds()
				allocs = float64(after.Mallocs-before.Mallocs) / float64(tier.posts)
				bytes = float64(after.TotalAlloc-before.TotalAlloc) / float64(tier.posts)
			}
			b.ReportMetric(msgsPerSec, "msgs/contact-sec")
			b.ReportMetric(allocs, "allocs/msg")
			b.ReportMetric(bytes, "B/msg")
			allocsPerMsg[tier.authors] = allocs
		})
	}
	// Both tiers are absent when -bench selected neither.
	if small, big := allocsPerMsg[1_000], allocsPerMsg[100_000]; small > 0 && big > 2*small {
		b.Fatalf("flatness: allocs/msg grew %.1fx from 1k to 100k authors (%.1f → %.1f), allowed 2x",
			big/small, small, big)
	}
}

// benchAuthors preloads a store with the large-population shape the
// storage refactor targets: 10k authors, sparse high sequence numbers.
func benchAuthors(b *testing.B, st *store.Store, authors int) []id.UserID {
	b.Helper()
	ids := make([]id.UserID, authors)
	for a := 0; a < authors; a++ {
		ids[a] = id.NewUserID(fmt.Sprintf("author%05d", a))
		// Two sparse seqs per author, far apart, so the per-author maps
		// exercise the gap-walking paths rather than dense ranges.
		for _, seq := range []uint64{uint64(a)%7 + 1, uint64(a)%7 + 1000} {
			if _, err := st.Put(&msg.Message{
				Author: ids[a], Seq: seq, Kind: msg.KindPost, Created: time.Unix(1491472800, 0),
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	return ids
}

// BenchmarkStoreSummary measures the advertisement-summary path that runs
// on every beacon refresh, at 10k authors. The seed rebuilt the whole
// UserID → seq dictionary per call (O(authors) per beacon); the engine
// now maintains it incrementally and hands out a cached copy-on-write
// snapshot, so this is O(1) per call.
func BenchmarkStoreSummary(b *testing.B) {
	st := store.New(id.NewUserID("self"))
	benchAuthors(b, st, 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(st.Summary()) != 10_000 {
			b.Fatal("bad summary")
		}
	}
}

// BenchmarkStorePut measures the insert path at 10k resident authors:
// index insert plus the O(1) incremental summary update.
func BenchmarkStorePut(b *testing.B) {
	st := store.New(id.NewUserID("self"))
	ids := benchAuthors(b, st, 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		author := ids[i%len(ids)]
		if _, err := st.Put(&msg.Message{
			Author: author, Seq: uint64(2000 + i), Kind: msg.KindPost,
			Created: time.Unix(1491472800, 0),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreMissing measures the advertisement-response planning path
// in two shapes. sparse: large sequence numbers with little held, where
// the probe runs over the whole range past the floor. dense-2000: one
// author with 2 000 consecutive messages held and the next one
// advertised — what a steady contact asks once per synced message, and
// what must not grow with the author's history.
func BenchmarkStoreMissing(b *testing.B) {
	for _, tc := range []struct {
		name             string
		step, held, upto uint64
		want             int
	}{
		{name: "sparse", step: 97, held: 1000, upto: 1000, want: 989},
		{name: "dense-2000", step: 1, held: 2000, upto: 2001, want: 1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			st := store.New(id.NewUserID("self"))
			author := id.NewUserID("bench-author")
			for seq := uint64(1); seq <= tc.held; seq += tc.step {
				if _, err := st.Put(&msg.Message{
					Author: author, Seq: seq, Kind: msg.KindPost, Created: time.Unix(1491472800, 0),
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := st.Missing(author, tc.upto); len(got) != tc.want {
					b.Fatalf("Missing returned %d sequences, want %d", len(got), tc.want)
				}
			}
		})
	}
}

// BenchmarkLiveDelivery measures the complete live path end to end: two
// fresh nodes join an in-process medium, authenticate (certificate
// handshake, transcript signatures, session keys), exchange summaries,
// and deliver one signed post.
func BenchmarkLiveDelivery(b *testing.B) {
	ca, err := sos.NewCA("bench-root", nil)
	if err != nil {
		b.Fatal(err)
	}
	cld := sos.NewCloud(ca, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		medium := sos.NewMemMedium()
		aliceCreds, err := sos.Bootstrap(cld, fmt.Sprintf("alice-%d", i))
		if err != nil {
			b.Fatal(err)
		}
		bobCreds, err := sos.Bootstrap(cld, fmt.Sprintf("bob-%d", i))
		if err != nil {
			b.Fatal(err)
		}
		got := make(chan struct{}, 1) // OnReceive may fire before the wait below
		alice, err := sos.NewNode(sos.NodeConfig{Creds: aliceCreds, Medium: medium})
		if err != nil {
			b.Fatal(err)
		}
		bob, err := sos.NewNode(sos.NodeConfig{
			Creds:  bobCreds,
			Medium: medium,
			OnReceive: func(*sos.Message, sos.UserID) {
				select {
				case got <- struct{}{}:
				default:
				}
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := alice.Post([]byte("bench post")); err != nil {
			b.Fatal(err)
		}
		select {
		case <-got:
		case <-time.After(10 * time.Second):
			b.Fatal("delivery timeout")
		}
		alice.Close()
		bob.Close()
	}
}
