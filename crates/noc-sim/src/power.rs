//! Event-energy power model.
//!
//! A simplified Orion-style model: each micro-architectural event (buffer
//! write/read, route computation, VC allocation, switch arbitration, crossbar
//! traversal, link traversal) costs a fixed dynamic energy at nominal
//! voltage, scaled by `(V/V_nom)²` under DVFS; routers and links additionally
//! leak a fixed static power scaled by `V/V_nom`.
//!
//! Absolute joule values are representative, not calibrated — every result in
//! the evaluation is a *ratio* between controllers on the same model (see
//! DESIGN.md, substitution 2).

use crate::dvfs::VfTable;
use serde::{Deserialize, Serialize};

/// Energies are in picojoules (pJ), powers in pJ per cycle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Energy to write one flit into an input buffer.
    pub e_buffer_write: f64,
    /// Energy to read one flit out of an input buffer.
    pub e_buffer_read: f64,
    /// Energy for one route computation.
    pub e_route: f64,
    /// Energy for one VC allocation.
    pub e_vc_alloc: f64,
    /// Energy for one switch arbitration.
    pub e_sw_arb: f64,
    /// Energy for one crossbar traversal of a flit.
    pub e_xbar: f64,
    /// Energy for one flit traversing one inter-router link.
    pub e_link: f64,
    /// Router leakage power (pJ/cycle at nominal voltage).
    pub p_leak_router: f64,
    /// Link leakage power (pJ/cycle at nominal voltage, per unidirectional link).
    pub p_leak_link: f64,
    /// Fraction of leakage an *idle* router (empty buffers, empty source
    /// queue) still pays. `1.0` disables power gating; the paper's
    /// extension gates idle routers down to ~`0.2`.
    pub idle_leakage_fraction: f64,
}

impl PowerModel {
    /// Representative 32 nm-class relative magnitudes: buffer accesses
    /// dominate, crossbar next, arbitration cheap; links cost about as much
    /// as a buffer access per hop.
    pub fn default_32nm() -> Self {
        PowerModel {
            e_buffer_write: 1.2,
            e_buffer_read: 1.0,
            e_route: 0.1,
            e_vc_alloc: 0.15,
            e_sw_arb: 0.2,
            e_xbar: 0.8,
            e_link: 1.6,
            p_leak_router: 0.35,
            p_leak_link: 0.05,
            idle_leakage_fraction: 1.0,
        }
    }

    /// The default model with idle power gating enabled (gated routers leak
    /// at 20 % of nominal).
    pub fn with_power_gating() -> Self {
        PowerModel {
            idle_leakage_fraction: 0.2,
            ..PowerModel::default_32nm()
        }
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel::default_32nm()
    }
}

/// The kinds of dynamic events the router/link report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PowerEvent {
    /// A flit written into an input buffer.
    BufferWrite,
    /// A flit read out of an input buffer.
    BufferRead,
    /// One route computation.
    RouteCompute,
    /// One VC allocation.
    VcAlloc,
    /// One switch arbitration.
    SwitchArb,
    /// One crossbar traversal.
    Crossbar,
    /// One flit crossing an inter-router link.
    LinkTraversal,
}

impl PowerEvent {
    /// Number of event kinds (the event axis of the energy ledger).
    pub const COUNT: usize = 7;

    /// Every event kind, in ledger order (`event as usize` is its index).
    pub const ALL: [PowerEvent; PowerEvent::COUNT] = [
        PowerEvent::BufferWrite,
        PowerEvent::BufferRead,
        PowerEvent::RouteCompute,
        PowerEvent::VcAlloc,
        PowerEvent::SwitchArb,
        PowerEvent::Crossbar,
        PowerEvent::LinkTraversal,
    ];

    /// Energy of one event at nominal voltage (pJ).
    fn energy(self, model: &PowerModel) -> f64 {
        match self {
            PowerEvent::BufferWrite => model.e_buffer_write,
            PowerEvent::BufferRead => model.e_buffer_read,
            PowerEvent::RouteCompute => model.e_route,
            PowerEvent::VcAlloc => model.e_vc_alloc,
            PowerEvent::SwitchArb => model.e_sw_arb,
            PowerEvent::Crossbar => model.e_xbar,
            PowerEvent::LinkTraversal => model.e_link,
        }
    }
}

/// Outgoing-link counts a router can have (0 through 4 on a mesh or torus):
/// the link axis of the leakage ledger.
pub const LINK_SLOTS: usize = 5;

/// Ledger cells per V/F level: one per dynamic event kind, then one per
/// (outgoing links, idle) leakage pair.
const CELLS_PER_LEVEL: usize = PowerEvent::COUNT + 2 * LINK_SLOTS;

/// Cells of a level that count dynamic events.
const DYNAMIC: std::ops::Range<usize> = 0..PowerEvent::COUNT;

/// Cells of a level that count leakage router-cycles.
const LEAKAGE: std::ops::Range<usize> = PowerEvent::COUNT..CELLS_PER_LEVEL;

#[inline]
fn dynamic_cell(event: PowerEvent, level: usize) -> usize {
    level * CELLS_PER_LEVEL + event as usize
}

#[inline]
fn leakage_cell(num_links: usize, level: usize, idle: bool) -> usize {
    level * CELLS_PER_LEVEL + PowerEvent::COUNT + 2 * num_links + idle as usize
}

/// The energy of one unit of every [`EnergyMeter`] cell, in pJ, derived from
/// a [`PowerModel`] and a [`VfTable`]. The network installs its rates into
/// the collector it steps; the meter applies them only when read.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyRates {
    pj: Vec<f64>,
}

impl EnergyRates {
    /// Rates for every level of `table`: an event costs its nominal energy
    /// times `(V/V_nom)²`; a router-cycle leaks router plus per-link power
    /// times `V/V_nom`, and an idle one only `idle_leakage_fraction` of it.
    pub fn new(model: &PowerModel, table: &VfTable) -> Self {
        let nominal = table.nominal_voltage();
        let mut pj = Vec::with_capacity(table.num_levels() * CELLS_PER_LEVEL);
        for level in table.levels() {
            let dynamic = level.dynamic_scale(nominal);
            pj.extend(PowerEvent::ALL.map(|e| e.energy(model) * dynamic));
            let busy = level.leakage_scale(nominal);
            let idle = busy * model.idle_leakage_fraction;
            for links in 0..LINK_SLOTS {
                let p = model.p_leak_router + model.p_leak_link * links as f64;
                pj.extend([p * busy, p * idle]);
            }
        }
        EnergyRates { pj }
    }
}

/// Counts energy over a run and converts it to pJ when read.
///
/// The meter is an integer ledger: dynamic events per (`PowerEvent`, V/F
/// level) and leakage router-cycles per (outgoing links, V/F level, idle).
/// Counting is order-independent, so meters filled in any grouping merge
/// to the same counts — and, because conversion sums the cells in a fixed
/// order, to the same pJ bit patterns. Reading multiplies each count by its
/// [`EnergyRates`] entry.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyMeter {
    counts: Vec<u64>,
    rates: EnergyRates,
}

impl EnergyMeter {
    /// An empty meter without rates (see [`EnergyMeter::set_rates`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Install the rates reads convert counts with.
    pub fn set_rates(&mut self, rates: EnergyRates) {
        self.rates = rates;
    }

    /// Whether rates have been installed.
    pub(crate) fn has_rates(&self) -> bool {
        !self.rates.pj.is_empty()
    }

    /// Add one to `cell`, growing the ledger by whole levels as needed.
    #[inline]
    fn bump(&mut self, cell: usize) {
        if cell >= self.counts.len() {
            self.counts
                .resize((cell / CELLS_PER_LEVEL + 1) * CELLS_PER_LEVEL, 0);
        }
        self.counts[cell] += 1;
    }

    /// Count one dynamic event at V/F level `level`.
    #[inline]
    pub fn record(&mut self, event: PowerEvent, level: usize) {
        self.bump(dynamic_cell(event, level));
    }

    /// Count one global cycle of leakage for a router with `num_links`
    /// outgoing links at V/F level `level`; `idle` routers (empty buffers
    /// and source queue) may be power gated.
    ///
    /// # Panics
    /// Panics if `num_links` is not below [`LINK_SLOTS`].
    #[inline]
    pub fn record_leakage(&mut self, num_links: usize, level: usize, idle: bool) {
        assert!(num_links < LINK_SLOTS, "{num_links} outgoing links");
        self.bump(leakage_cell(num_links, level, idle));
    }

    /// Dynamic events of kind `event` counted at `level`.
    pub fn dynamic_count(&self, event: PowerEvent, level: usize) -> u64 {
        self.counts
            .get(dynamic_cell(event, level))
            .copied()
            .unwrap_or(0)
    }

    /// Leakage router-cycles counted for (`num_links`, `level`, `idle`).
    pub fn leakage_count(&self, num_links: usize, level: usize, idle: bool) -> u64 {
        self.counts
            .get(leakage_cell(num_links, level, idle))
            .copied()
            .unwrap_or(0)
    }

    /// Σ count × rate over the `cells` of every level, level by level.
    fn convert(&self, cells: std::ops::Range<usize>) -> f64 {
        let mut pj = 0.0;
        for (level, counts) in self.counts.chunks_exact(CELLS_PER_LEVEL).enumerate() {
            let counts = &counts[cells.clone()];
            if counts.iter().all(|&c| c == 0) {
                continue;
            }
            let base = level * CELLS_PER_LEVEL;
            let rates = self
                .rates
                .pj
                .get(base + cells.start..base + cells.end)
                .unwrap_or_else(|| panic!("energy counted at level {level} without rates"));
            for (&c, &r) in counts.iter().zip(rates) {
                pj += c as f64 * r;
            }
        }
        pj
    }

    /// Total dynamic energy (pJ).
    pub fn dynamic_pj(&self) -> f64 {
        self.convert(DYNAMIC)
    }

    /// Total leakage energy (pJ).
    pub fn leakage_pj(&self) -> f64 {
        self.convert(LEAKAGE)
    }

    /// Total energy (pJ).
    pub fn total_pj(&self) -> f64 {
        self.dynamic_pj() + self.leakage_pj()
    }

    /// Number of dynamic events recorded.
    pub fn events(&self) -> u64 {
        self.counts
            .chunks_exact(CELLS_PER_LEVEL)
            .flat_map(|level| &level[DYNAMIC])
            .sum()
    }

    /// Add another meter's counts to this one (taking its rates if this
    /// meter has none).
    pub fn merge(&mut self, other: &EnergyMeter) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (x, y) in self.counts.iter_mut().zip(&other.counts) {
            *x += y;
        }
        if !self.has_rates() {
            self.rates = other.rates.clone();
        }
    }

    /// Zero every count, keeping the rates.
    pub(crate) fn clear(&mut self) {
        self.counts.fill(0);
    }

    /// Difference `self - earlier`, for per-epoch accounting. The result
    /// converts with this meter's rates (or `earlier`'s, if this one has
    /// none), so a snapshot taken before any rates were installed still
    /// diffs correctly.
    ///
    /// # Panics
    /// Panics if `earlier` holds a count larger than `self`'s, which means
    /// the snapshots were taken out of order.
    pub fn since(&self, earlier: &EnergyMeter) -> EnergyMeter {
        let mut delta = self.clone();
        for (x, y) in delta.counts.iter_mut().zip(&earlier.counts) {
            *x = x.checked_sub(*y).expect("energy snapshots out of order");
        }
        if !delta.has_rates() {
            delta.rates = earlier.rates.clone();
        }
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn meter(model: &PowerModel) -> EnergyMeter {
        let mut m = EnergyMeter::new();
        m.set_rates(EnergyRates::new(model, &VfTable::four_level()));
        m
    }

    #[test]
    fn events_accumulate_scaled_energy() {
        let m = PowerModel::default_32nm();
        let table = VfTable::four_level();
        let mut meter = meter(&m);
        meter.record(PowerEvent::BufferWrite, 3);
        meter.record(PowerEvent::LinkTraversal, 0);
        let low = table.levels()[0].dynamic_scale(table.nominal_voltage());
        assert!((meter.dynamic_pj() - (1.2 + 1.6 * low)).abs() < 1e-12);
        assert_eq!(meter.events(), 2);
        assert_eq!(meter.dynamic_count(PowerEvent::LinkTraversal, 0), 1);
        assert_eq!(meter.dynamic_count(PowerEvent::LinkTraversal, 3), 0);
    }

    #[test]
    fn leakage_accumulates_per_cycle() {
        let m = PowerModel::default_32nm();
        let mut meter = meter(&m);
        for _ in 0..10 {
            meter.record_leakage(4, 3, false);
        }
        let expected = 10.0 * (0.35 + 0.05 * 4.0);
        assert!((meter.leakage_pj() - expected).abs() < 1e-9);
        assert!((meter.total_pj() - expected).abs() < 1e-9);
        assert_eq!(meter.leakage_count(4, 3, false), 10);
    }

    #[test]
    fn power_gating_scales_idle_leakage() {
        let gated = PowerModel::with_power_gating();
        assert_eq!(gated.idle_leakage_fraction, 0.2);
        assert_eq!(PowerModel::default_32nm().idle_leakage_fraction, 1.0);
        let (mut busy, mut idle) = (meter(&gated), meter(&gated));
        busy.record_leakage(2, 3, false);
        idle.record_leakage(2, 3, true);
        assert!((idle.leakage_pj() - 0.2 * busy.leakage_pj()).abs() < 1e-12);
        // Without gating an idle cycle leaks the full amount, bit for bit.
        let ungated = PowerModel::default_32nm();
        let (mut busy, mut idle) = (meter(&ungated), meter(&ungated));
        busy.record_leakage(2, 3, false);
        idle.record_leakage(2, 3, true);
        assert_eq!(idle.leakage_pj(), busy.leakage_pj());
    }

    #[test]
    fn lower_voltage_leaks_less() {
        let m = PowerModel::default_32nm();
        let mut hi = meter(&m);
        let mut lo = meter(&m);
        hi.record_leakage(4, 3, false);
        lo.record_leakage(4, 0, false);
        assert!(lo.leakage_pj() < hi.leakage_pj());
        assert!((lo.leakage_pj() * 1.1 / 0.6 - hi.leakage_pj()).abs() < 1e-12);
    }

    #[test]
    fn since_computes_epoch_delta() {
        let m = PowerModel::default_32nm();
        // A snapshot taken before rates are installed still diffs.
        let mut meter = EnergyMeter::new();
        let empty = meter.clone();
        meter.set_rates(EnergyRates::new(&m, &VfTable::four_level()));
        meter.record(PowerEvent::Crossbar, 3);
        let snap = meter.clone();
        meter.record(PowerEvent::Crossbar, 3);
        meter.record_leakage(0, 3, false);
        let delta = meter.since(&snap);
        assert!((delta.dynamic_pj() - 0.8).abs() < 1e-12);
        assert!((delta.leakage_pj() - 0.35).abs() < 1e-12);
        assert_eq!(delta.events(), 1);
        assert_eq!(meter.since(&empty).events(), 2);
        assert_eq!(meter.since(&empty).total_pj(), meter.total_pj());
    }

    #[test]
    fn merge_adds_components() {
        let m = PowerModel::default_32nm();
        let mut a = meter(&m);
        let mut b = EnergyMeter::new();
        a.record(PowerEvent::BufferRead, 3);
        b.record_leakage(2, 1, false);
        b.record(PowerEvent::BufferRead, 3);
        a.merge(&b);
        assert_eq!(a.events(), 2);
        assert_eq!(a.leakage_count(2, 1, false), 1);
        assert!(a.dynamic_pj() > 0.0 && a.leakage_pj() > 0.0);
        b.clear();
        assert_eq!(b.events(), 0);
        assert_eq!(b.leakage_count(2, 1, false), 0);
    }

    /// Conversion multiplies each count by one rate, so the ledger agrees
    /// with an exactly rounded sum of the per-event energies, and with a
    /// naive per-event f64 sum (the meter's former behavior) to within that
    /// sum's own rounding drift.
    #[test]
    fn ledger_matches_per_event_sums_over_a_million_events() {
        const EVENTS: usize = 1_000_000;
        let model = PowerModel::with_power_gating();
        let table = VfTable::four_level();
        let nominal = table.nominal_voltage();
        let mut meter = meter(&model);
        let mut naive = 0.0f64;
        // Neumaier-compensated running sum: (sum, carried error).
        let mut compensated = (0.0f64, 0.0f64);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..EVENTS {
            let level = rng.gen_range(0..table.num_levels());
            let vf = table.levels()[level];
            let e = if rng.gen::<bool>() {
                let event = PowerEvent::ALL[rng.gen_range(0..PowerEvent::COUNT)];
                meter.record(event, level);
                event.energy(&model) * vf.dynamic_scale(nominal)
            } else {
                let links = rng.gen_range(0..LINK_SLOTS);
                let idle = rng.gen::<bool>();
                meter.record_leakage(links, level, idle);
                let mut scale = vf.leakage_scale(nominal);
                if idle {
                    scale *= model.idle_leakage_fraction;
                }
                (model.p_leak_router + model.p_leak_link * links as f64) * scale
            };
            naive += e;
            let (sum, err) = compensated;
            let t = sum + e;
            let lost = if sum.abs() >= e {
                (sum - t) + e
            } else {
                (e - t) + sum
            };
            compensated = (t, err + lost);
        }
        let total = meter.total_pj();
        let exact = compensated.0 + compensated.1;
        let rel = |x: f64| (total - x).abs() / x;
        assert!(rel(exact) <= 1e-15, "ledger {total} vs exact {exact}");
        // Recursive summation of n terms may drift up to ~n·ε relative.
        let drift = EVENTS as f64 * f64::EPSILON;
        assert!(rel(naive) <= drift, "ledger {total} vs naive {naive}");
    }
}
