// Package addrmap implements the GPU address mapping described in Section
// II-C of the paper.
//
// The goals of the mapping are:
//
//   - consecutive cache lines land in the same DRAM row of the same bank to
//     promote row-buffer locality (the 256B interleave block holds two 128B
//     lines, and a 4KB row collects sixteen blocks);
//
//   - blocks of consecutive cache lines are interleaved across the memory
//     channels and banks at a granularity of 256 bytes for channel- and
//     bank-level parallelism;
//
//   - the channel index is computed by XOR-ing addr[10:8] with addr[13:11]
//     before the mod-6 fold, exactly as the paper specifies:
//
//     channel = {addr[47:11] : (addr[10:8] XOR addr[13:11])} % 6
//
//     which prevents pathological "channel camping" on power-of-two strides;
//
//   - the bank index is permuted by XOR-ing with low-order row bits
//     (Zhang et al. [53]) to prevent bank camping.
package addrmap

// Geometry constants of the simulated memory system (Table II).
const (
	LineBytes  = 128  // L1/L2 cache line and request size
	BlockBytes = 256  // channel/bank interleave granularity
	AtomBytes  = 64   // one GDDR5 burst (BL8 on the 64-bit channel)
	RowBytes   = 4096 // logical row: 2KB page per x32 device, two devices in tandem

	BlocksPerRow = RowBytes / BlockBytes // 16
	AtomsPerBlk  = BlockBytes / AtomBytes
)

// Mapper decodes byte addresses into DRAM coordinates for a fixed geometry.
type Mapper struct {
	Channels int // number of memory channels (6 in Table II)
	Banks    int // banks per channel (16 in Table II); must be a power of two
	bankMask uint64
	bankBits uint
}

// New returns a Mapper for the given channel and bank counts. Banks must be
// a power of two.
func New(channels, banks int) *Mapper {
	if channels <= 0 {
		panic("addrmap: channels must be positive")
	}
	if banks <= 0 || banks&(banks-1) != 0 {
		panic("addrmap: banks must be a positive power of two")
	}
	bits := uint(0)
	for 1<<bits < banks {
		bits++
	}
	return &Mapper{Channels: channels, Banks: banks, bankMask: uint64(banks - 1), bankBits: bits}
}

// Coord is a fully decoded DRAM location. Col is in units of 64B atoms
// within the row.
type Coord struct {
	Channel int
	Bank    int
	Row     int
	Col     int
}

// channelKey applies the paper's XOR spread to the 256B block index and
// returns the pre-fold key {addr[47:11] : (addr[10:8] XOR addr[13:11])}.
func channelKey(addr uint64) uint64 {
	blk := addr >> 8 // 256B block index; blk[2:0] == addr[10:8]
	hi := blk >> 3   // addr[47:11]
	lo := (blk & 7) ^ (hi & 7)
	return hi<<3 | lo
}

// invChannelKey inverts channelKey.
func invChannelKey(key uint64) uint64 {
	hi := key >> 3
	lo := (key & 7) ^ (hi & 7)
	return hi<<3 | lo // block index
}

// Decode maps a byte address to its DRAM coordinates.
func (m *Mapper) Decode(addr uint64) Coord {
	key := channelKey(addr)
	ch := int(key % uint64(m.Channels))
	cblk := key / uint64(m.Channels) // per-channel 256B block index

	row := cblk >> (m.bankBits + 4) // 16 block slots per row
	bank := (cblk & m.bankMask) ^ (row & m.bankMask)
	slot := (cblk >> m.bankBits) & (BlocksPerRow - 1)
	col := int(slot)*AtomsPerBlk + int((addr>>6)&(AtomsPerBlk-1))

	return Coord{Channel: ch, Bank: int(bank), Row: int(row), Col: col}
}

// Encode is the inverse of Decode: it returns the (64B-aligned) byte
// address of the given DRAM coordinate. Decode(Encode(c)) == c for every
// in-range coordinate, and Encode(Decode(a)) == a &^ 63 for every address.
func (m *Mapper) Encode(c Coord) uint64 {
	slot := uint64(c.Col / AtomsPerBlk)
	atom := uint64(c.Col % AtomsPerBlk)
	row := uint64(c.Row)
	bank := (uint64(c.Bank) ^ (row & m.bankMask)) & m.bankMask
	cblk := row<<(m.bankBits+4) | slot<<m.bankBits | bank
	key := cblk*uint64(m.Channels) + uint64(c.Channel)
	return invChannelKey(key)<<8 | atom<<6
}
