package flight

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/hpcnet/fobs/internal/metrics"
	"github.com/hpcnet/fobs/internal/obs"
	"github.com/hpcnet/fobs/internal/spine"
)

// ErrCorrupt wraps every structural defect the reader detects, so callers
// can distinguish a damaged recording from an IO failure.
var ErrCorrupt = errors.New("flight: corrupt recording")

// EndpointLog is one endpoint's complete recorded stream, regrouped from
// the file's interleaved frames.
type EndpointLog struct {
	Meta    Meta
	Records []Record
	// Dropped counts records lost to ring overrun; a nonzero value means
	// the stream is a truthful prefix-with-gaps, not a full capture.
	Dropped uint64
	// Snapshot is the final metrics snapshot embedded in the trailer, nil
	// when the recorded run had metrics disabled.
	Snapshot *metrics.TransferSnapshot
	// Ended reports whether the trailer frame was present (false means
	// the recording was cut off mid-transfer).
	Ended bool
}

// ReadFile parses a .fobrec file into its per-endpoint streams, in the
// order their start frames appeared.
func ReadFile(path string) ([]*EndpointLog, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Read parses a .fobrec stream. Structural damage — a bad magic or another
// format version, an unknown frame or record kind, records for an
// unannounced or already ended endpoint, a truncated frame — is reported as
// an error wrapping ErrCorrupt. What Read holds grows with the bytes the
// stream delivers, never with the lengths its frames claim.
func Read(r io.Reader) ([]*EndpointLog, error) {
	br := bufio.NewReader(r)
	var magic [len(fileMagic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: missing file magic: %v", ErrCorrupt, err)
	}
	if string(magic[:]) != fileMagic {
		if string(magic[:6]) == fileMagic[:6] {
			return nil, fmt.Errorf("%w: recording format version %s, this build reads %s", ErrCorrupt, magic[6:], fileMagic[6:])
		}
		return nil, fmt.Errorf("%w: bad file magic %q", ErrCorrupt, magic)
	}

	type key struct {
		transfer uint32
		role     obs.Role
	}
	byKey := make(map[key]*EndpointLog)
	var order []*EndpointLog

	var h [frameHeaderLen]byte
	for frameNo := 0; ; frameNo++ {
		if _, err := io.ReadFull(br, h[:]); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("%w: truncated frame header (frame %d): %v", ErrCorrupt, frameNo, err)
		}
		if h[0] != frameMarker {
			return nil, fmt.Errorf("%w: bad frame marker 0x%02x (frame %d)", ErrCorrupt, h[0], frameNo)
		}
		typ, role := h[1], obs.Role(h[2])
		transfer := rd32(h[4:])
		plen := int(rd32(h[8:]))
		if plen < 0 || plen > 1<<30 {
			return nil, fmt.Errorf("%w: absurd frame payload length %d", ErrCorrupt, plen)
		}
		// Read as it arrives rather than allocated up front: a frame claiming
		// more than the stream holds costs what the stream holds.
		payload, err := io.ReadAll(io.LimitReader(br, int64(plen)))
		if err == nil && len(payload) < plen {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, fmt.Errorf("%w: truncated frame payload (frame %d): %v", ErrCorrupt, frameNo, err)
		}
		k := key{transfer, role}
		switch typ {
		case frameStart:
			if plen != startPayloadLen {
				return nil, fmt.Errorf("%w: start frame payload is %d bytes, want %d", ErrCorrupt, plen, startPayloadLen)
			}
			if old := byKey[k]; old != nil && !old.Ended {
				return nil, fmt.Errorf("%w: duplicate start for transfer %d %v", ErrCorrupt, transfer, role)
			}
			packets := int(rd32(payload[0:]))
			if packets < 0 {
				return nil, fmt.Errorf("%w: start frame claims %d packets, beyond this platform's int", ErrCorrupt, rd32(payload[0:]))
			}
			ep := &EndpointLog{Meta: Meta{
				Transfer:      transfer,
				Role:          role,
				PacketsNeeded: packets,
				PacketSize:    int(rd32(payload[4:])),
				Schedule:      int(payload[8]),
				ObjectBytes:   int64(rd64(payload[12:])),
				StartAt:       time.Duration(rd64(payload[20:])),
			}}
			byKey[k] = ep
			order = append(order, ep)
		case frameRecords:
			ep := byKey[k]
			if ep == nil {
				return nil, fmt.Errorf("%w: records for unannounced transfer %d %v", ErrCorrupt, transfer, role)
			}
			if ep.Ended {
				return nil, fmt.Errorf("%w: records after trailer for transfer %d %v", ErrCorrupt, transfer, role)
			}
			if plen%recordBytes != 0 {
				return nil, fmt.Errorf("%w: records frame of %d bytes is not a whole number of records", ErrCorrupt, plen)
			}
			for off := 0; off < plen; off += recordBytes {
				rec := recordFromWords(spine.Words(payload[off:]))
				if rec.Kind == 0 || rec.Kind > kindMax {
					return nil, fmt.Errorf("%w: unknown record kind %d in transfer %d %v", ErrCorrupt, rec.Kind, transfer, role)
				}
				ep.Records = append(ep.Records, rec)
			}
		case frameEnd:
			ep := byKey[k]
			if ep == nil {
				return nil, fmt.Errorf("%w: trailer for unannounced transfer %d %v", ErrCorrupt, transfer, role)
			}
			if ep.Ended {
				return nil, fmt.Errorf("%w: duplicate trailer for transfer %d %v", ErrCorrupt, transfer, role)
			}
			if plen < 12 {
				return nil, fmt.Errorf("%w: trailer payload is %d bytes, want >= 12", ErrCorrupt, plen)
			}
			ep.Dropped = rd64(payload[0:])
			snapLen := int(rd32(payload[8:]))
			if snapLen != plen-12 {
				return nil, fmt.Errorf("%w: trailer snapshot length %d does not match payload %d", ErrCorrupt, snapLen, plen)
			}
			if snapLen > 0 {
				var snap metrics.TransferSnapshot
				if err := json.Unmarshal(payload[12:], &snap); err != nil {
					return nil, fmt.Errorf("%w: trailer snapshot: %v", ErrCorrupt, err)
				}
				// A zero-valued snapshot means metrics were off for the run.
				if snap.PacketsNeeded != 0 || snap.PacketsSent != 0 || snap.DataDemuxed != 0 {
					ep.Snapshot = &snap
				}
			}
			ep.Ended = true
		default:
			return nil, fmt.Errorf("%w: unknown frame type %d", ErrCorrupt, typ)
		}
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("%w: no endpoints recorded", ErrCorrupt)
	}
	return order, nil
}

func rd32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func rd64(b []byte) uint64 {
	return uint64(rd32(b))<<32 | uint64(rd32(b[4:]))
}
