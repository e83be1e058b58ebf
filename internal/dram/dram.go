// Package dram implements a cycle-accurate model of one GDDR5 memory
// channel: 16 banks organized into 4 bank groups, per-bank in-order command
// queues, and a command scheduler that interleaves bank groups first and
// banks second (the multi-level round-robin of Section II-C), while
// enforcing every timing constraint of the Table II set.
//
// The channel is policy-free: a memory controller (internal/memctrl,
// internal/core) decides which transaction to enqueue and when; the channel
// guarantees that the resulting DRAM command stream is legal and reports
// when each transaction's data transfer finishes.
//
// One transaction moves one 128-byte request; because the 64-bit GDDR5
// channel transfers 64 bytes per burst (BL8, tBURST = 2 tCK), a transaction
// issues two column commands. Keeping the 64B burst as the unit of data
// transfer keeps the MERB arithmetic of Section IV-D identical to the
// paper's.
//
// Per-bank state is data-oriented: the row/timing/score fields the
// scheduler scan and the legality checks read every cycle live in flat
// per-channel arrays indexed by bank (see the "Data-oriented core"
// section of DESIGN.md). Tick's one round-robin scan, which also yields
// the channel's wake bound, walks an occupancy bitmask so it visits only
// banks with queued commands, and prices each from its cached head time.
package dram

import (
	"math/bits"

	"dramlat/internal/gddr5"
	"dramlat/internal/guard"
	"dramlat/internal/memreq"
)

// Never is the wakeup-contract sentinel: a wake bound of Never means "no
// state change can happen without new external input". Any finite wakeup
// may be early (the caller just re-checks); it must never be later than
// the component's first actual state change.
const Never int64 = 1 << 62

// CmdType enumerates DRAM commands.
type CmdType uint8

const (
	// CmdACT opens a row in a bank.
	CmdACT CmdType = iota
	// CmdPRE closes the open row of a bank.
	CmdPRE
	// CmdRD reads one 64B burst from the open row.
	CmdRD
	// CmdWR writes one 64B burst to the open row.
	CmdWR
)

func (c CmdType) String() string {
	switch c {
	case CmdACT:
		return "ACT"
	case CmdPRE:
		return "PRE"
	case CmdRD:
		return "RD"
	case CmdWR:
		return "WR"
	}
	return "?"
}

// Command is one entry of a per-bank command queue.
type Command struct {
	Type CmdType
	Bank int
	Row  int          // target row (ACT) or open-row check (RD/WR)
	Txn  *Transaction // owning transaction for column commands
	Last bool         // final column command of the transaction
}

// Transaction is a scheduled request: the unit the transaction scheduler
// hands to the channel. Hit records whether the transaction was projected
// (and, because per-bank queues execute in order, actually is) a row hit.
//
// Transactions are recycled: once one completes, the channel reclaims it
// at the next Tick on a later cycle. Callers may read a completed
// transaction until the end of the tick its last burst finished on
// (OnComplete and the command returned by that Tick), not across ticks.
type Transaction struct {
	Req      *memreq.Request
	Hit      bool
	CASTotal int
	casDone  int
	DoneAt   int64 // tick at which the last burst finishes
}

// Stats aggregates channel activity counters.
type Stats struct {
	// Refreshes is always zero: the channel models no refresh. It stays
	// so the Results JSON, and every hash of it, keeps its bytes.
	Refreshes int64
	ACTs      int64
	PREs      int64
	RDBursts  int64
	WRBursts  int64
	HitTxns   int64
	MissTxns  int64
	ReadTxns  int64
	WriteTxns int64
	BusyTicks int64 // data-bus busy time (bursts * tBURST)
}

// maxBanks is the largest bank count a channel supports: the occupancy
// mask holds one bit per bank.
const maxBanks = 64

// Channel is one 64-bit GDDR5 channel with a single rank of 16 banks.
type Channel struct {
	T        gddr5.Timing
	NumBanks int
	Groups   int // bank groups (4)
	QueueCap int // max queued transactions per bank
	perGroup int // banks per group

	// Per-bank state, struct-of-arrays, indexed by bank. openRow/actOK/
	// preOK/casOK are the architectural row and earliest-legal times the
	// per-tick legality checks read; schedRow/queuedTxns/queuedScore/
	// hitsSinceAct are the shadow scheduling state (the view once all
	// queued commands execute) the transaction schedulers read.
	openRow      []int32 // -1 when closed (architectural)
	actOK        []int64
	preOK        []int64
	casOK        []int64
	schedRow     []int32 // row open after queued cmds execute; -1 closed
	queuedTxns   []int32
	queuedScore  []int32 // WG score units (1 per projected hit, 3 per miss)
	hitsSinceAct []int32 // 64B bursts scheduled since the last scheduled ACT

	// queues are the per-bank in-order command queues, head-indexed so a
	// pop never re-slices capacity away.
	queues [][]Command
	qHead  []int32

	// occ has one bit per bank with queued commands, laid out
	// within-major (bit within*Groups+g for bank g*perGroup+within), so
	// each Groups-bit row holds one round-robin step across the groups.
	// headKind/headAt cache each non-empty bank's head command type and
	// its bank-side earliest-legal tick (see refreshHead); they are
	// refreshed only when the head changes, since only issuing a bank's
	// head moves that bank's timing state.
	occ      uint64
	headKind []CmdType
	headAt   []int64

	// Rank-level timing state.
	lastACT   int64    // for tRRD
	fawWindow [4]int64 // ticks of the last four ACTs (ring)
	fawIdx    int

	lastCASGroup []int64 // last column command per bank group (tCCDL)
	lastCASAny   int64   // last column command on the channel (tCCDS)
	lastRDCmd    int64   // last read column command (tRTW)
	wrDataEnd    int64   // end of last write data (tWTR)
	busFreeAt    int64   // data bus availability

	rrBank  int // round-robin position within group
	rrGroup int // round-robin position across groups

	// busOnly holds Zero-Latency-Divergence trailing requests: they are
	// serviced purely as data-bus transfers (Fig 4's ideal model keeps
	// bus bandwidth and contention but abstracts bank conflicts away).
	busOnly []*Transaction
	boHead  int

	// lastCmd is the storage for the command Tick returns, so issuing a
	// command never allocates; the pointer is valid until the next Tick.
	lastCmd Command

	// txnFree/txnDead recycle Transaction objects. A completing
	// transaction parks on txnDead until a Tick on a later cycle moves it
	// to txnFree — by then every same-tick reader (OnComplete, the
	// tracer reading the returned command's Txn) has run.
	txnFree  []*Transaction
	txnDead  []*Transaction
	lastSeen int64

	// OnComplete fires when a transaction's final burst finishes
	// transferring. It may be nil.
	OnComplete func(*Transaction, int64)

	// WakeCache lets Tick skip the bank scan outright while now is before
	// cmdWake, a cached lower bound on the next tick any command can
	// issue (recomputed on idle ticks, zeroed by every state mutation).
	// Off in the dense oracle (gpu.System.RunDense) so its Tick stays
	// pristine for differential tests; the cache's own contract is
	// covered by TestNextWakeupNeverLate.
	WakeCache bool
	cmdWake   int64

	Stats Stats
}

// NewChannel builds a channel with the given timing and geometry.
func NewChannel(t gddr5.Timing, numBanks, groups, queueCap int) *Channel {
	if numBanks%groups != 0 {
		panic("dram: banks must divide evenly into groups")
	}
	if numBanks > maxBanks {
		panic("dram: more banks than the occupancy mask holds")
	}
	c := &Channel{
		T:            t,
		NumBanks:     numBanks,
		Groups:       groups,
		QueueCap:     queueCap,
		perGroup:     numBanks / groups,
		openRow:      make([]int32, numBanks),
		actOK:        make([]int64, numBanks),
		preOK:        make([]int64, numBanks),
		casOK:        make([]int64, numBanks),
		schedRow:     make([]int32, numBanks),
		queuedTxns:   make([]int32, numBanks),
		queuedScore:  make([]int32, numBanks),
		hitsSinceAct: make([]int32, numBanks),
		queues:       make([][]Command, numBanks),
		qHead:        make([]int32, numBanks),
		headKind:     make([]CmdType, numBanks),
		headAt:       make([]int64, numBanks),
		lastCASGroup: make([]int64, groups),
		lastSeen:     -1 << 62,
	}
	const past = -1 << 30
	for i := 0; i < numBanks; i++ {
		c.openRow[i] = -1
		c.schedRow[i] = -1
		c.actOK[i] = past
		c.preOK[i] = past
		c.casOK[i] = past
	}
	c.lastACT = past
	for i := range c.fawWindow {
		c.fawWindow[i] = past
	}
	for i := range c.lastCASGroup {
		c.lastCASGroup[i] = past
	}
	c.lastCASAny = past
	c.lastRDCmd = past
	c.wrDataEnd = past
	c.busFreeAt = past
	return c
}

func (c *Channel) group(bankIdx int) int { return bankIdx / c.perGroup }

// occBit returns bank b's bit in the occupancy mask.
func (c *Channel) occBit(b int) uint64 {
	g := b / c.perGroup
	return 1 << uint((b-g*c.perGroup)*c.Groups+g)
}

// queueLen returns the number of commands queued at bank b.
func (c *Channel) queueLen(b int) int { return len(c.queues[b]) - int(c.qHead[b]) }

// head returns the head command of bank b's queue (caller checked len).
func (c *Channel) head(b int) *Command { return &c.queues[b][c.qHead[b]] }

// popHead removes bank b's head command, resetting the backing array
// (and clearing the bank's occupancy bit) once the queue fully drains so
// its capacity is reused from the front.
func (c *Channel) popHead(b int) {
	q := c.queues[b]
	h := int(c.qHead[b])
	q[h] = Command{}
	h++
	if h == len(q) {
		c.queues[b] = q[:0]
		h = 0
		c.occ &^= c.occBit(b)
	}
	c.qHead[b] = int32(h)
}

// push appends cmd to bank b's queue. A full backing array with popped
// slots at its front is compacted rather than grown, so a queue that never
// fully drains reuses its capacity instead of reallocating as it cycles.
// A push into an empty queue sets the bank's occupancy bit and head cache.
func (c *Channel) push(b int, cmd Command) {
	q := c.queues[b]
	if h := int(c.qHead[b]); h > 0 && len(q) == cap(q) {
		n := copy(q, q[h:])
		clear(q[n:])
		q = q[:n]
		c.qHead[b] = 0
	}
	c.queues[b] = append(q, cmd)
	if len(q) == 0 {
		c.occ |= c.occBit(b)
		c.refreshHead(b)
	}
}

// refreshHead caches bank b's head command type and the bank-side half of
// its Table II bound: tRC/tRP (actOK) for ACT, tRAS/tRTP/tWR (preOK) for
// PRE and tRCD (casOK) for RD/WR. The channel-side half is channelBounds'.
// The row-state preconditions (ACT only on a closed bank, PRE only on an
// open one, CAS only on the matching open row) need no check: per-bank
// queues execute in order and Enqueue built the PRE/ACT prefix from the
// shadow row state, so they always hold for queue heads.
func (c *Channel) refreshHead(b int) {
	k := c.head(b).Type
	c.headKind[b] = k
	switch k {
	case CmdACT:
		c.headAt[b] = c.actOK[b]
	case CmdPRE:
		c.headAt[b] = c.preOK[b]
	default:
		c.headAt[b] = c.casOK[b]
	}
}

// newTxn returns a zeroed transaction, recycling a retired one when the
// freelist has stock.
func (c *Channel) newTxn(r *memreq.Request) *Transaction {
	if n := len(c.txnFree); n > 0 {
		t := c.txnFree[n-1]
		c.txnFree = c.txnFree[:n-1]
		*t = Transaction{Req: r}
		return t
	}
	return &Transaction{Req: r}
}

// reclaimTxns moves transactions that completed on an earlier tick to
// the freelist. Same-tick readers (OnComplete, the tracer behind Tick's
// returned command) have all run by the first Tick of a later cycle.
func (c *Channel) reclaimTxns(now int64) {
	if now == c.lastSeen {
		return
	}
	c.lastSeen = now
	if len(c.txnDead) > 0 {
		c.txnFree = append(c.txnFree, c.txnDead...)
		c.txnDead = c.txnDead[:0]
	}
}

// CanAccept reports whether bank b's command queue has room for another
// transaction.
func (c *Channel) CanAccept(b int) bool {
	return int(c.queuedTxns[b]) < c.QueueCap
}

// SchedRow returns the row that will be open in bank b once all queued
// commands execute, or -1 if the bank will be (or stay) closed.
func (c *Channel) SchedRow(b int) int { return int(c.schedRow[b]) }

// OpenRow returns the row currently open in bank b (-1 precharged),
// for diagnostics.
func (c *Channel) OpenRow(b int) int { return int(c.openRow[b]) }

// QueuedTxns returns the number of transactions queued at bank b.
func (c *Channel) QueuedTxns(b int) int { return int(c.queuedTxns[b]) }

// QueuedScore returns the WG completion-time score (1 per projected row
// hit, 3 per projected row miss; Section IV-B1) of the transactions queued
// at bank b.
func (c *Channel) QueuedScore(b int) int { return int(c.queuedScore[b]) }

// HitsSinceAct returns the number of 64B row-hit bursts scheduled to bank b
// since its last scheduled activate: the MERB counter of Section IV-D.
func (c *Channel) HitsSinceAct(b int) int { return int(c.hitsSinceAct[b]) }

// ProjectHit reports whether a request to (bank, row) would be a row hit if
// enqueued now.
func (c *Channel) ProjectHit(bankIdx, row int) bool {
	return c.schedRow[bankIdx] == int32(row)
}

// EnqueueBusOnly schedules a request that consumes only data-bus
// bandwidth: two bursts at the earliest bus opening, no bank commands.
func (c *Channel) EnqueueBusOnly(r *memreq.Request) *Transaction {
	txn := c.newTxn(r)
	txn.Hit = true
	txn.CASTotal = 2
	c.busOnly = append(c.busOnly, txn)
	c.cmdWake = 0
	return txn
}

// tickBusOnly issues the oldest bus-only transfer if the data bus is open.
// It mirrors a read's bus occupancy (data at now+tCAS for 2*tBURST).
func (c *Channel) tickBusOnly(now int64) bool {
	if len(c.busOnly)-c.boHead == 0 {
		return false
	}
	start := now + int64(c.T.TCAS)
	if start < c.busFreeAt {
		return false
	}
	txn := c.busOnly[c.boHead]
	c.busOnly[c.boHead] = nil
	c.boHead++
	if c.boHead == len(c.busOnly) {
		c.busOnly = c.busOnly[:0]
		c.boHead = 0
	}
	end := start + 2*int64(c.T.TBURST)
	c.busFreeAt = end
	c.Stats.RDBursts += 2
	c.Stats.BusyTicks += 2 * int64(c.T.TBURST)
	c.Stats.ReadTxns++
	c.Stats.HitTxns++
	txn.casDone = txn.CASTotal
	txn.DoneAt = end
	if c.OnComplete != nil {
		c.OnComplete(txn, end)
	}
	c.txnDead = append(c.txnDead, txn)
	return true
}

// Enqueue schedules a request onto its bank's command queue, generating
// PRE/ACT commands as needed based on the shadow row state. It returns the
// transaction and whether it was a projected row hit. The caller must have
// checked CanAccept.
func (c *Channel) Enqueue(r *memreq.Request) *Transaction {
	b := r.Bank
	if int(c.queuedTxns[b]) >= c.QueueCap {
		// Hot-path invariant: callers must CanAccept first. Kept as a
		// (typed) panic — the model cannot continue — and converted into
		// a *guard.RunError by the façade's recover.
		guard.Invariantf("dram: enqueue to full bank %d", r.Bank)
	}
	c.cmdWake = 0
	casType := CmdRD
	if r.Kind == memreq.Write {
		casType = CmdWR
	}
	const casPerTxn = 2 // 128B request = two 64B bursts
	txn := c.newTxn(r)
	txn.CASTotal = casPerTxn

	if c.schedRow[b] == int32(r.Row) {
		txn.Hit = true
		c.queuedScore[b]++
		c.hitsSinceAct[b] += casPerTxn
		c.Stats.HitTxns++
	} else {
		if c.schedRow[b] != -1 {
			c.push(b, Command{Type: CmdPRE, Bank: b})
		}
		c.push(b, Command{Type: CmdACT, Bank: b, Row: r.Row})
		c.schedRow[b] = int32(r.Row)
		c.queuedScore[b] += 3
		c.hitsSinceAct[b] = casPerTxn
		c.Stats.MissTxns++
	}
	for i := 0; i < casPerTxn; i++ {
		c.push(b, Command{
			Type: casType, Bank: b, Row: r.Row,
			Txn: txn, Last: i == casPerTxn-1,
		})
	}
	c.queuedTxns[b]++
	if r.Kind == memreq.Write {
		c.Stats.WriteTxns++
	} else {
		c.Stats.ReadTxns++
	}
	return txn
}

// channelBounds returns, indexed by CmdType, the channel-side half of each
// command's Table II bound: tRRD and tFAW for ACT; tCCDS, tWTR and the
// data-bus release for RD; tCCDS, tRTW and the data-bus release for WR.
// PRE has none. A queue head may issue at now exactly when the max of
// its headAt, its kind's bound and, for RD/WR, tCCDL after its group's
// last column command is <= now; scan states that max once.
func (c *Channel) channelBounds() (k [4]int64) {
	k[CmdACT] = max(c.lastACT+int64(c.T.TRRD), c.fawWindow[c.fawIdx]+int64(c.T.TFAW))
	k[CmdPRE] = -Never
	cas := c.lastCASAny + int64(c.T.TCCDS)
	k[CmdRD] = max(cas, c.wrDataEnd+int64(c.T.TWTR), c.busFreeAt-int64(c.T.TCAS))
	k[CmdWR] = max(cas, c.lastRDCmd+int64(c.T.TRTW), c.busFreeAt-int64(c.T.TWL))
	return k
}

// scan walks the banks in Tick's bank-group-interleaved round-robin
// order — group (rrGroup+i%Groups)%Groups, within-group bank
// (rrBank+i/Groups)%perGroup for step i — and returns the first bank
// whose queue head may issue at now. When none may, it returns -1 and
// the earliest tick at which a queued command or a pending bus-only
// transfer could go (Never if nothing is queued). It visits only the
// occupancy mask's set bits: one Groups-bit row per within-group index,
// starting at rrBank, each rotated right by rrGroup so its lowest set bit
// is the next group in turn.
func (c *Channel) scan(now int64) (bank int, wake int64) {
	wake = Never
	if len(c.busOnly)-c.boHead > 0 {
		wake = c.busFreeAt - int64(c.T.TCAS)
	}
	if c.occ == 0 {
		return -1, wake
	}
	kind := c.channelBounds()
	tCCDL := int64(c.T.TCCDL)
	G, perGroup := c.Groups, c.perGroup
	rowMask := uint64(1)<<uint(G) - 1
	rg := uint(c.rrGroup)
	within := c.rrBank
	for r := 0; r < perGroup; r++ {
		row := c.occ >> uint(within*G) & rowMask
		for row = (row>>rg | row<<(uint(G)-rg)) & rowMask; row != 0; row &= row - 1 {
			g := c.rrGroup + bits.TrailingZeros64(row)
			if g >= G {
				g -= G
			}
			bi := g*perGroup + within
			k := c.headKind[bi]
			t := max(c.headAt[bi], kind[k])
			if k >= CmdRD {
				t = max(t, c.lastCASGroup[g]+tCCDL)
			}
			if t <= now {
				return bi, wake
			}
			if t < wake {
				wake = t
			}
		}
		if within++; within == perGroup {
			within = 0
		}
	}
	return -1, wake
}

// apply issues cmd at tick now, updating all timing state.
func (c *Channel) apply(cmd *Command, now int64) {
	b := cmd.Bank
	switch cmd.Type {
	case CmdACT:
		c.openRow[b] = int32(cmd.Row)
		c.casOK[b] = now + int64(c.T.TRCD)
		if ras := now + int64(c.T.TRAS); ras > c.preOK[b] {
			c.preOK[b] = ras
		}
		c.actOK[b] = now + int64(c.T.TRC)
		c.lastACT = now
		c.fawWindow[c.fawIdx] = now
		c.fawIdx = (c.fawIdx + 1) % len(c.fawWindow)
		c.Stats.ACTs++
	case CmdPRE:
		c.openRow[b] = -1
		if ok := now + int64(c.T.TRP); ok > c.actOK[b] {
			c.actOK[b] = ok
		}
		c.Stats.PREs++
	case CmdRD:
		if p := now + int64(c.T.TRTP); p > c.preOK[b] {
			c.preOK[b] = p
		}
		g := c.group(b)
		c.lastCASGroup[g] = now
		c.lastCASAny = now
		c.lastRDCmd = now
		end := now + int64(c.T.TCAS) + int64(c.T.TBURST)
		c.busFreeAt = end
		c.Stats.RDBursts++
		c.Stats.BusyTicks += int64(c.T.TBURST)
		c.finishBurst(cmd, end)
	case CmdWR:
		dataEnd := now + int64(c.T.TWL) + int64(c.T.TBURST)
		if p := dataEnd + int64(c.T.TWR); p > c.preOK[b] {
			c.preOK[b] = p
		}
		g := c.group(b)
		c.lastCASGroup[g] = now
		c.lastCASAny = now
		c.wrDataEnd = dataEnd
		c.busFreeAt = dataEnd
		c.Stats.WRBursts++
		c.Stats.BusyTicks += int64(c.T.TBURST)
		c.finishBurst(cmd, dataEnd)
	}
}

func (c *Channel) finishBurst(cmd *Command, dataEnd int64) {
	txn := cmd.Txn
	txn.casDone++
	if cmd.Last {
		if txn.casDone != txn.CASTotal {
			panic("dram: last burst issued before siblings")
		}
		txn.DoneAt = dataEnd
		b := cmd.Bank
		c.queuedTxns[b]--
		score := int32(1)
		if !txn.Hit {
			score = 3
		}
		c.queuedScore[b] -= score
		if c.OnComplete != nil {
			c.OnComplete(txn, dataEnd)
		}
		c.txnDead = append(c.txnDead, txn)
	}
}

// Tick attempts to issue one command on the channel's command bus at tick
// now, visiting banks in bank-group-interleaved round-robin order so that
// consecutive column commands prefer different bank groups (lower tCCD).
// It returns the issued command or nil; the returned pointer is only
// valid until the next Tick (the storage is reused).
func (c *Channel) Tick(now int64) *Command {
	c.reclaimTxns(now)
	if c.WakeCache && now < c.cmdWake {
		return nil // provably nothing issuable before cmdWake
	}
	c.tickBusOnly(now)
	bi, wake := c.scan(now)
	if bi < 0 {
		if c.WakeCache {
			c.cmdWake = max(wake, now+1)
		}
		return nil
	}
	c.lastCmd = *c.head(bi)
	c.popHead(bi)
	c.apply(&c.lastCmd, now)
	if c.queueLen(bi) > 0 {
		c.refreshHead(bi)
	}
	// Advance round-robin past the bank we just served.
	g := c.group(bi)
	if c.rrGroup = g + 1; c.rrGroup == c.Groups {
		c.rrGroup = 0
		if c.rrBank = bi - g*c.perGroup + 1; c.rrBank == c.perGroup {
			c.rrBank = 0
		}
	}
	c.cmdWake = 0 // timing state changed: rescan next tick
	return &c.lastCmd
}

// Idle reports whether the channel has no queued commands at all.
func (c *Channel) Idle() bool {
	return c.occ == 0 && len(c.busOnly)-c.boHead == 0
}

// RowHitRate returns the fraction of transactions that were row hits.
func (s Stats) RowHitRate() float64 {
	tot := s.HitTxns + s.MissTxns
	if tot == 0 {
		return 0
	}
	return float64(s.HitTxns) / float64(tot)
}
