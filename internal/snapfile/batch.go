package snapfile

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/graph"
)

// The batch codec: one update batch as the WAL logs it, as a client sends
// it to be applied (internal/server), and as a diff carries its group's
// batches. A batch is a 32-bit little-endian header, a byte naming the
// form and the id width w, and then, for each update, its source and its
// target at w bits and its insert flag as one bit, in the bit order of
// bits.go, padded to a whole byte. The header's top bit is set and the
// rest is the update count; the form byte is 64 plus w, the bit length of
// the largest id, one OR over the ids.
//
// An older form, which DecodeBatch still reads, is a 32-bit count and then
// nine bytes an update: source, target, flag. Its count is below 2^31 (a
// record of 2^31 updates would take 18 GB), so its top bit is clear, and
// the two forms cannot be mistaken for one another.
const (
	batchNew     = 1 << 31
	batchVersion = 1 << 6 // the form byte, the width below it
	batchHeader  = 5
)

// AppendBatch appends the encoding of batch to dst.
func AppendBatch(dst []byte, batch []graph.Update) []byte {
	var top uint32
	for _, u := range batch {
		top |= uint32(u.From) | uint32(u.To)
	}
	w := uint(bits.Len32(top))
	dst = binary.LittleEndian.AppendUint32(dst, batchNew|uint32(len(batch)))
	dst = append(dst, batchVersion|byte(w))
	size := batchBytes(len(batch), w)
	at := len(dst)
	dst = append(dst, make([]byte, size+8)...)
	buf := dst[at:]
	var acc uint64
	fill, i := uint(0), 0
	for _, u := range batch {
		flag := uint64(0)
		if u.Insert {
			flag = 1
		}
		acc, fill, i = emit(buf, acc, fill, i, uint64(uint32(u.From)), w)
		acc, fill, i = emit(buf, acc, fill, i, uint64(uint32(u.To))|flag<<w, w+1)
	}
	return dst[:at+size]
}

// batchBytes is the length of the update bits of n updates with ids of w
// bits.
func batchBytes(n int, w uint) int { return int((uint64(n)*uint64(2*w+1) + 7) / 8) }

// DecodeBatch decodes a batch encoding of either form, validating the
// declared count against the payload size, node ids against numNodes, and
// the flags — corrupt or foreign payloads error, never panic.
func DecodeBatch(payload []byte, numNodes int) ([]graph.Update, error) {
	return DecodeBatchAtMost(payload, numNodes, math.MaxInt)
}

// DecodeBatchAtMost is DecodeBatch for a payload from a sender that is not
// trusted: a batch that declares more than most updates is refused before
// they are allocated. The current form takes as little as one bit an
// update (ids of width 0), so the payload size alone lets n bytes ask for
// 8n updates of twelve bytes each.
func DecodeBatchAtMost(payload []byte, numNodes, most int) ([]graph.Update, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("batch payload of %d bytes", len(payload))
	}
	if binary.LittleEndian.Uint32(payload)&batchNew == 0 {
		return decodeOldBatch(payload, numNodes, most)
	}
	batch, rest, err := decodeBatch(payload, numNodes, most)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("batch of %d updates followed by %d bytes", len(batch), len(rest))
	}
	if err != nil {
		return nil, err
	}
	return batch, nil
}

// decodeBatch decodes the batch data starts with, in the current form, of
// at most most updates, and returns it with the bytes after it.
func decodeBatch(data []byte, numNodes, most int) (batch []graph.Update, rest []byte, err error) {
	if len(data) < batchHeader {
		return nil, nil, fmt.Errorf("batch header of %d bytes", len(data))
	}
	h, form := binary.LittleEndian.Uint32(data), data[4]
	count, w := int(h&^batchNew), uint(form&^batchVersion)
	if h&batchNew == 0 || form&^63 != batchVersion || w > 32 {
		return nil, nil, fmt.Errorf("batch header %#x, form %#x", h, form)
	}
	if count > most {
		return nil, nil, fmt.Errorf("batch claims %d updates, more than %d", count, most)
	}
	size := batchBytes(count, w)
	body := data[batchHeader:]
	if size > len(body) {
		return nil, nil, fmt.Errorf("batch claims %d updates at %d bits in %d bytes", count, w, len(body))
	}
	body, rest = body[:size], body[size:]
	batch = make([]graph.Update, count)
	r := bitReader{buf: body}
	mask := uint64(1)<<w - 1
	for i := range batch {
		from, x := r.get(w), r.get(w+1)
		if from >= uint64(numNodes) || x&mask >= uint64(numNodes) {
			return nil, nil, fmt.Errorf("update %d references node outside [0,%d)", i, numNodes)
		}
		batch[i] = graph.Update{From: graph.Node(from), To: graph.Node(x & mask), Insert: x>>w != 0}
	}
	return batch, rest, nil
}

// decodeOldBatch decodes the older form, of at most most updates: a 32-bit
// count, then nine bytes an update.
func decodeOldBatch(payload []byte, numNodes, most int) ([]graph.Update, error) {
	count := int(binary.LittleEndian.Uint32(payload))
	if count > most {
		return nil, fmt.Errorf("batch claims %d updates, more than %d", count, most)
	}
	if len(payload) != 4+9*count {
		return nil, fmt.Errorf("batch claims %d updates in %d bytes", count, len(payload))
	}
	batch := make([]graph.Update, count)
	for i := range batch {
		rec := payload[4+9*i:]
		from := int32(binary.LittleEndian.Uint32(rec[0:4]))
		to := int32(binary.LittleEndian.Uint32(rec[4:8]))
		if int(from) < 0 || int(from) >= numNodes || int(to) < 0 || int(to) >= numNodes {
			return nil, fmt.Errorf("update %d references node outside [0,%d)", i, numNodes)
		}
		switch rec[8] {
		case 0:
			batch[i] = graph.Deletion(from, to)
		case 1:
			batch[i] = graph.Insertion(from, to)
		default:
			return nil, fmt.Errorf("update %d has insert flag %d", i, rec[8])
		}
	}
	return batch, nil
}
