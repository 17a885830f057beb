package pack

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// Needle record layout (little-endian), the unit of the on-disk volume
// format:
//
//	[0:4]    magic  "NDL1"
//	[4:12]   block  int64
//	[12:16]  length uint32 — payload byte count
//	[16:20]  crc    CRC-32C (Castagnoli) over bytes [4:16] then the payload
//	[20:..]  payload
//
// The CRC covers the block/length fields as well as the payload, so a
// record whose header was torn mid-write fails validation even when the
// payload bytes happen to be intact.
const (
	needleMagic      = "NDL1"
	needleHeaderSize = 20
)

// NeedleHeaderSize is the fixed per-record overhead in a volume file.
const NeedleHeaderSize = needleHeaderSize

// DefaultMaxPayload caps one needle's payload (1 MiB), matching the wire
// protocol's default frame cap.
const DefaultMaxPayload = 1 << 20

// Decode errors. DecodeNeedle returns exactly one of these for any
// malformed input — never a panic (FuzzNeedleDecode holds it to that).
var (
	ErrBadMagic  = errors.New("pack: bad needle magic")
	ErrTruncated = errors.New("pack: truncated needle")
	ErrChecksum  = errors.New("pack: needle checksum mismatch")
	ErrTooLarge  = errors.New("pack: needle payload exceeds limit")
)

// castagnoli is hardware-accelerated on the platforms we care about.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendNeedle appends the encoded needle record for (block, payload) to
// buf and returns the extended slice. Zero-alloc when buf has capacity.
func AppendNeedle(buf []byte, block int64, payload []byte) []byte {
	buf = append(buf, needleMagic...)
	start := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(block))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	// The CRC'd prefix (block + length) is summed in place: a stack array
	// would escape through crc32's dispatch and cost an allocation.
	crc := crc32.Update(0, castagnoli, buf[start:])
	crc = crc32.Update(crc, castagnoli, payload)
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	return append(buf, payload...)
}

// DecodeNeedle validates the needle record at the start of b and returns
// its block, payload (aliasing b), and total encoded size. maxPayload <= 0
// selects DefaultMaxPayload. Corrupt, truncated, or oversized input
// returns an error; DecodeNeedle never panics.
func DecodeNeedle(b []byte, maxPayload int) (block int64, payload []byte, n int, err error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	if len(b) < needleHeaderSize {
		return 0, nil, 0, ErrTruncated
	}
	if string(b[0:4]) != needleMagic {
		return 0, nil, 0, ErrBadMagic
	}
	length := binary.LittleEndian.Uint32(b[12:16])
	if length > uint32(maxPayload) {
		return 0, nil, 0, ErrTooLarge
	}
	total := needleHeaderSize + int(length)
	if len(b) < total {
		return 0, nil, 0, ErrTruncated
	}
	crc := crc32.Update(0, castagnoli, b[4:16])
	crc = crc32.Update(crc, castagnoli, b[needleHeaderSize:total])
	if crc != binary.LittleEndian.Uint32(b[16:20]) {
		return 0, nil, 0, ErrChecksum
	}
	return int64(binary.LittleEndian.Uint64(b[4:12])), b[needleHeaderSize:total], total, nil
}
