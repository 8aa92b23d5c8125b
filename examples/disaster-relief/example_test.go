// Disaster relief: the paper's motivating scenario. A storm has taken
// the cellular network down; a resident posts a status update that must
// reach an aid worker across town. No contact ever links them directly —
// the message is carried by a volunteer driving between the two sites
// (epidemic routing), exactly the "alley oop" the system is named for.
//
// The scenario runs on the deterministic virtual-time medium, so the
// printed delays are simulated hours, not wall time.
//
// The printed transcript is checked byte for byte. Run with:
//
//	go test -v ./examples/disaster-relief
package disasterrelief

import (
	"fmt"
	"log"
	"time"

	"sos"
)

func Example() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
	// Output:
	// 06:00  cellular/internet infrastructure is DOWN
	// 06:00  resident posts: "family of 4 safe on roof at 5th & Main, need water"
	// 09:00  volunteer drives past the resident (bluetooth contact)
	// 13:30  volunteer reaches the staging area (p2p wifi contact)
	// 13:30  aid worker receives MEBA63MAMQ5AEUMR#1 after 2 hops, 7.5 h after posting: "family of 4 safe on roof at 5th & Main, need water"
	//        provenance verified offline: certificate chain + author signature OK
}

func run() error {
	start := time.Date(2017, 9, 11, 6, 0, 0, 0, time.UTC) // morning after landfall
	clk := sos.NewVirtualClock(start)

	ca, err := sos.NewCA("Relief Network CA", clk)
	if err != nil {
		return err
	}
	cld := sos.NewCloud(ca, clk)
	medium := sos.NewSimMedium(clk)

	mkNode := func(handle string, sink *[]*sos.Message) (*sos.Node, error) {
		creds, err := sos.Bootstrap(cld, handle)
		if err != nil {
			return nil, err
		}
		return sos.NewNode(sos.NodeConfig{
			Creds:    creds,
			Medium:   medium,
			PeerName: sos.PeerID(handle),
			Scheme:   sos.SchemeEpidemic, // emergencies flood to everyone
			Clock:    clk,
			OnReceive: func(m *sos.Message, _ sos.UserID) {
				if sink != nil {
					*sink = append(*sink, m)
				}
			},
		})
	}

	var aidReceived []*sos.Message
	resident, err := mkNode("resident", nil)
	if err != nil {
		return err
	}
	defer resident.Close()
	volunteer, err := mkNode("volunteer", nil)
	if err != nil {
		return err
	}
	defer volunteer.Close()
	aidWorker, err := mkNode("aid-worker", &aidReceived)
	if err != nil {
		return err
	}
	defer aidWorker.Close()

	// The cloud goes down with the cell network: from now on the system
	// runs with zero infrastructure.
	cld.SetReachable(false)
	fmt.Println("06:00  cellular/internet infrastructure is DOWN")

	post, err := resident.Post([]byte("family of 4 safe on roof at 5th & Main, need water"))
	if err != nil {
		return err
	}
	fmt.Printf("06:00  resident posts: %q\n", post.Payload)

	pump := func(d time.Duration) {
		medium.RunUntil(clk.Now().Add(d))
		clk.Set(clk.Now().Add(d))
	}

	// 09:00 — a volunteer drives past the resident's street.
	pump(3 * time.Hour)
	medium.SetLink("resident", "volunteer", sos.Bluetooth)
	fmt.Println("09:00  volunteer drives past the resident (bluetooth contact)")
	pump(2 * time.Minute)
	medium.CutLink("resident", "volunteer")

	// 13:30 — the volunteer reaches the relief staging area.
	pump(4*time.Hour + 28*time.Minute)
	medium.SetLink("volunteer", "aid-worker", sos.PeerToPeerWiFi)
	fmt.Println("13:30  volunteer reaches the staging area (p2p wifi contact)")
	pump(2 * time.Minute)
	medium.CutLink("volunteer", "aid-worker")

	if len(aidReceived) == 0 {
		return fmt.Errorf("the message never reached the aid worker")
	}
	m := aidReceived[0]
	delay := clk.Now().Sub(m.Created)
	fmt.Printf("13:30  aid worker receives %s after %d hops, %.1f h after posting: %q\n",
		m.Ref(), m.Hops, delay.Hours(), m.Payload)

	// The aid worker can prove who wrote it, offline, via the carried
	// certificate chain.
	cert, err := aidWorker.Verifier().VerifyFor(m.CertDER, m.Author)
	if err != nil {
		return fmt.Errorf("provenance check failed: %w", err)
	}
	if err := m.VerifyWithKey(cert.Key); err != nil {
		return fmt.Errorf("signature check failed: %w", err)
	}
	fmt.Println("       provenance verified offline: certificate chain + author signature OK")
	return nil
}
