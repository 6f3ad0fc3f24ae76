package profstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
)

// The WAL frame format (version 1). Every record the store appends is
// wrapped in a fixed 13-byte header:
//
//	offset  size  field
//	0       4     magic  F5 'I' 'P' 'W'
//	4       1     version (1)
//	5       4     payload length, little-endian
//	9       4     CRC32C (Castagnoli) of the payload, little-endian
//	13      len   payload: the walRecord JSON object
//
// followed by one '\n' outside the checksum, so the file stays roughly
// line-structured for debugging. The payload is the same JSON object the
// legacy (PR 4–7) JSONL WAL stored one per line; replay accepts both
// formats interleaved in one file, which is what an old WAL appended to
// by a new server looks like. A record whose frame is torn (crash
// mid-append), whose checksum mismatches (bit rot), or whose JSON/XML no
// longer ingests is skipped and counted — never silently truncating the
// records behind it: the scanner resynchronises at the next frame magic
// or line boundary.
const (
	walMagic0     = 0xf5 // first magic byte: never starts a legacy JSON line
	walVersion    = 1
	walHeaderSize = 13
	// maxWALPayload bounds a frame's claimed length: MaxIngestBytes of
	// XML expands at most 6x under JSON escaping, plus id/tags slack.
	maxWALPayload = 6*MaxIngestBytes + 1<<20
)

var walMagic = [4]byte{walMagic0, 'I', 'P', 'W'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame wraps payload in a version-1 WAL frame.
func appendFrame(buf, payload []byte) []byte {
	var hdr [walHeaderSize]byte
	copy(hdr[:4], walMagic[:])
	hdr[4] = walVersion
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[9:13], crc32.Checksum(payload, castagnoli))
	buf = append(buf, hdr[:]...)
	buf = append(buf, payload...)
	return append(buf, '\n')
}

// finishFrame backfills the frame header of a buffer laid out as
// [walHeaderSize bytes of placeholder][payload] — the in-place twin of
// appendFrame for the pooled ingest path — and appends the trailing
// newline.
func finishFrame(buf []byte) []byte {
	payload := buf[walHeaderSize:]
	copy(buf[:4], walMagic[:])
	buf[4] = walVersion
	binary.LittleEndian.PutUint32(buf[5:9], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[9:13], crc32.Checksum(payload, castagnoli))
	return append(buf, '\n')
}

// walScan iterates the records of a WAL (or snapshot) image, calling fn
// with each structurally valid record and the payload bytes it was
// decoded from. It returns the number of records skipped as torn,
// corrupt or undecodable. The scan never fails: any byte sequence
// terminates, which FuzzWALReplay leans on.
func walScan(data []byte, fn func(rec *walRecord, payload []byte)) (skipped int) {
	pos := 0
	handle := func(payload []byte) {
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			skipped++
			return
		}
		fn(&rec, payload)
	}
	// resync advances past a bad region: to the next frame magic or just
	// past the next newline (a legacy record boundary), whichever comes
	// first after from.
	resync := func(from int) int {
		for i := from; i < len(data); i++ {
			if data[i] == walMagic0 {
				return i
			}
			if data[i] == '\n' {
				return i + 1
			}
		}
		return len(data)
	}
	for pos < len(data) {
		if data[pos] == walMagic0 {
			// Framed record. Any header/CRC violation counts one skip and
			// resynchronises after the magic byte.
			h := data[pos:]
			if len(h) >= walHeaderSize && bytes.Equal(h[:4], walMagic[:]) && h[4] == walVersion {
				plen := int(binary.LittleEndian.Uint32(h[5:9]))
				if plen >= 0 && plen <= maxWALPayload && walHeaderSize+plen <= len(h) {
					payload := h[walHeaderSize : walHeaderSize+plen]
					if crc32.Checksum(payload, castagnoli) == binary.LittleEndian.Uint32(h[9:13]) {
						handle(payload)
						pos += walHeaderSize + plen
						if pos < len(data) && data[pos] == '\n' {
							pos++
						}
						continue
					}
				}
			}
			skipped++
			pos = resync(pos + 1)
			continue
		}
		// Legacy JSONL record: one line, tolerating a missing final
		// newline (the classic torn tail).
		end := bytes.IndexByte(data[pos:], '\n')
		var line []byte
		if end < 0 {
			line = data[pos:]
			pos = len(data)
		} else {
			line = data[pos : pos+end]
			pos += end + 1
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		handle(line)
	}
	return skipped
}

// replayImage re-ingests every record of a WAL or snapshot image.
// recovered counts successful ingests (including replacements of
// already-seen ids); skipped counts torn/corrupt frames, undecodable
// records and records whose XML no longer ingests; records is the
// number of structurally valid records seen.
func (s *Store) replayImage(data []byte) (recovered, skipped, records int) {
	failed := 0
	bad := walScan(data, func(rec *walRecord, _ []byte) {
		records++
		if _, err := s.ingest([]byte(rec.XML), rec.ID, rec.Tags, false); err != nil {
			failed++
			return
		}
		recovered++
	})
	return recovered, bad + failed, records
}
