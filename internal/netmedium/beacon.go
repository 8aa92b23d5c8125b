package netmedium

import (
	"encoding/binary"
	"errors"
	"fmt"

	"sos/internal/mpc"
)

// Discovery beacons are single UDP datagrams, so the whole encoding —
// header, session port, and advertisement payload — must fit one
// datagram. MaxBeaconAd caps the opaque advertisement payload far
// enough below the 65507-byte UDP maximum to leave room for the rest.
const MaxBeaconAd = 60000

// beaconMagic distinguishes SOS discovery datagrams from stray traffic on
// the beacon port.
var beaconMagic = [4]byte{'S', 'O', 'S', 'B'}

// beaconVersion numbers the beacon encoding and the session preamble; a
// datagram or preamble of any other version is refused.
const beaconVersion = 2

// Beacon flag bits.
const (
	flagGoodbye     = 1 << 0 // the sender is detaching from the medium
	flagAdvertising = 1 << 1 // the ad payload field is present
)

// Errors reported by the beacon codec.
var (
	errBadBeacon = errors.New("netmedium: malformed beacon")
	errAdTooBig  = errors.New("netmedium: advertisement exceeds beacon capacity")
)

// beacon is the decoded form of one discovery datagram: who the sender
// is, which incarnation of it is speaking, where its TCP session listener
// is, and — if it is advertising — the opaque advertisement payload the
// layers above will decode as a wire.Advertisement.
type beacon struct {
	name        mpc.PeerID
	epoch       uint64 // random per-endpoint incarnation; changes on restart
	goodbye     bool
	advertising bool
	port        uint16 // never 0: a beacon names a dialable listener
	ad          []byte
}

// encode serializes the beacon.
//
//	magic(4) version(1) flags(1) epoch(8)
//	nameLen(1) name
//	port(2)
//	[ adLen(2) ad ]           — present iff advertising
func (b *beacon) encode() ([]byte, error) {
	if len(b.name) == 0 || len(b.name) > 255 {
		return nil, fmt.Errorf("netmedium: beacon name %d bytes", len(b.name))
	}
	if b.advertising && len(b.ad) > MaxBeaconAd {
		return nil, fmt.Errorf("%w: %d bytes", errAdTooBig, len(b.ad))
	}
	var flags byte
	if b.goodbye {
		flags |= flagGoodbye
	}
	if b.advertising {
		flags |= flagAdvertising
	}
	out := make([]byte, 0, 64+len(b.ad))
	out = append(out, beaconMagic[:]...)
	out = append(out, beaconVersion, flags)
	out = binary.BigEndian.AppendUint64(out, b.epoch)
	out = append(out, byte(len(b.name)))
	out = append(out, b.name...)
	out = binary.BigEndian.AppendUint16(out, b.port)
	if b.advertising {
		out = binary.BigEndian.AppendUint16(out, uint16(len(b.ad)))
		out = append(out, b.ad...)
	}
	return out, nil
}

// parseBeacon decodes one datagram, rejecting anything that is not a
// well-formed SOS beacon. Port 0 is refused here: no peer could dial it,
// and a cached peer that cannot be dialed would be re-dialed on every
// retry tick for as long as its beacons arrive.
func parseBeacon(buf []byte) (*beacon, error) {
	if len(buf) < 15 || [4]byte(buf[:4]) != beaconMagic {
		return nil, errBadBeacon
	}
	if buf[4] != beaconVersion {
		return nil, fmt.Errorf("%w: version %d", errBadBeacon, buf[4])
	}
	flags := buf[5]
	b := &beacon{
		epoch:       binary.BigEndian.Uint64(buf[6:14]),
		goodbye:     flags&flagGoodbye != 0,
		advertising: flags&flagAdvertising != 0,
	}
	rest := buf[14:]
	nameLen := int(rest[0])
	rest = rest[1:]
	if nameLen == 0 || len(rest) < nameLen+2 {
		return nil, errBadBeacon
	}
	b.name = mpc.PeerID(rest[:nameLen])
	b.port = binary.BigEndian.Uint16(rest[nameLen:])
	rest = rest[nameLen+2:]
	if b.port == 0 {
		return nil, fmt.Errorf("%w: port 0", errBadBeacon)
	}
	if b.advertising {
		if len(rest) < 2 {
			return nil, errBadBeacon
		}
		adLen := int(binary.BigEndian.Uint16(rest))
		rest = rest[2:]
		if len(rest) != adLen {
			return nil, errBadBeacon
		}
		b.ad = append([]byte(nil), rest...)
	} else if len(rest) != 0 {
		return nil, errBadBeacon
	}
	return b, nil
}
