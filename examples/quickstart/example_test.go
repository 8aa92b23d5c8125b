// Quickstart: the smallest complete SOS deployment. Two users bootstrap
// against a CA-backed cloud (the one-time infrastructure requirement),
// then meet over a device-to-device link and exchange a post over an
// authenticated, encrypted session — no infrastructure involved after
// signup.
//
// The run is on the deterministic virtual-time medium and the keys come
// from a seeded source, so the printed transcript is checked byte for
// byte. Run with:
//
//	go test -v ./examples/quickstart
package quickstart

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"sos"
)

func Example() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
	// Output:
	// alice signed up: user id FRMTH2XMLDES2ORG
	// bob   signed up: user id HS33O47DKWGAIAKU
	// alice posted FRMTH2XMLDES2ORG#1: "hello, opportunistic world"
	// bob received FRMTH2XMLDES2ORG#1 after 1 hop(s): "hello, opportunistic world"
	// the message was certificate-verified and author-signed end to end
}

func run() error {
	clk := sos.NewVirtualClock(time.Date(2017, 4, 3, 9, 0, 0, 0, time.UTC))

	// One-time infrastructure: certificate authority + cloud signup.
	ca, err := sos.NewCA("Quickstart Root CA", clk)
	if err != nil {
		return err
	}
	cld := sos.NewCloud(ca, clk)

	rng := rand.New(rand.NewSource(1))
	aliceCreds, err := sos.BootstrapWithRand(cld, "alice", rng)
	if err != nil {
		return err
	}
	bobCreds, err := sos.BootstrapWithRand(cld, "bob", rng)
	if err != nil {
		return err
	}
	fmt.Printf("alice signed up: user id %s\n", aliceCreds.Ident.User)
	fmt.Printf("bob   signed up: user id %s\n", bobCreds.Ident.User)

	// From here on, no infrastructure: a shared device-to-device medium.
	medium := sos.NewSimMedium(clk)

	var delivered []*sos.Message
	alice, err := sos.NewNode(sos.NodeConfig{
		Creds: aliceCreds, Medium: medium, Clock: clk, ResyncInterval: -1,
	})
	if err != nil {
		return err
	}
	defer alice.Close()

	bob, err := sos.NewNode(sos.NodeConfig{
		Creds: bobCreds, Medium: medium, Clock: clk, ResyncInterval: -1,
		OnReceive: func(m *sos.Message, _ sos.UserID) {
			delivered = append(delivered, m)
		},
	})
	if err != nil {
		return err
	}
	defer bob.Close()

	post, err := alice.Post([]byte("hello, opportunistic world"))
	if err != nil {
		return err
	}
	fmt.Printf("alice posted %s: %q\n", post.Ref(), post.Payload)

	// The two phones come into Bluetooth range for a minute.
	medium.SetLink("alice-device", "bob-device", sos.Bluetooth)
	medium.RunUntil(clk.Now().Add(time.Minute))

	if len(delivered) == 0 {
		return fmt.Errorf("the post never reached bob")
	}
	m := delivered[0]
	fmt.Printf("bob received %s after %d hop(s): %q\n", m.Ref(), m.Hops, m.Payload)
	fmt.Println("the message was certificate-verified and author-signed end to end")
	return nil
}
