//! The crate's configuration currency: one serializable [`AlgoConfig`]
//! names any Allgather this crate can build, and one [`build`] dispatcher
//! turns it into a schedule.
//!
//! Everything upstream — the campaign runner's cache keys, the offline
//! autotuner's tuning-table entries (`mha-tune`), the `--tuned` serving
//! path in the `fig*` binaries — speaks `AlgoConfig`. The historical
//! `build_*` free functions and [`crate::AllgatherAlgo`] remain as thin
//! wrappers over [`build`], so their schedules (and the 14 golden
//! latencies pinned in `tests/golden_latencies.rs`) are bit-identical to
//! before the unification.
//!
//! An `AlgoConfig` carries the full design space the repo exposes:
//!
//! * the **family** (flat baselines, two-level leaders, MHA-intra/-inter,
//!   or a library surrogate's selection logic),
//! * the MHA-inter knobs: phase-2 algorithm, phase-3 overlap, Eq. 1's
//!   offload `d`, the Exchange pipeline **chunk** (a [`ComposePlan`] knob:
//!   rank-blocks per leader-exchange piece), and
//! * two environment overrides: a **stripe-threshold** override of the
//!   point-to-point striping policy (applied to the [`ClusterSpec`] via
//!   [`AlgoConfig::effective_spec`], for builds *and* pricing), and a
//!   **degraded rail set** (`down_rails`, the `RailSet` knob).
//!
//! Configs serialize to a stable `key=value` text form (the `.mtab`
//! tuning-table entry payload) and hash to a stable FNV-1a digest
//! ([`AlgoConfig::digest`]) that the campaign cache key derives from — one
//! hash path for schedule caching and tuning-table serving.

use std::borrow::Cow;

use mha_sched::{Fingerprinter, ProcGrid, RailSet, Topology};
use mha_simnet::ClusterSpec;

use crate::baselines::Library;
use crate::compose::{emit_plan, ComposePlan};
use crate::ctx::{BuildError, Built, Ctx};
use crate::mha::{resolve_offload, InterAlgo, MhaInterConfig, Offload};
use crate::{flat, twolevel};

/// The algorithm family an [`AlgoConfig`] selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Flat ring (Section 2.2).
    Ring,
    /// Flat recursive doubling (power-of-two ranks).
    RecursiveDoubling,
    /// Bruck's algorithm (any rank count).
    Bruck,
    /// Flat direct spread / dissemination.
    DirectSpread,
    /// Single-leader two-level baseline (power-of-two nodes).
    SingleLeader,
    /// Multi-leader two-level baseline (Kandalla et al.).
    MultiLeader {
        /// Leader groups per node (must divide ppn).
        groups: u32,
    },
    /// The paper's multi-HCA aware intra-node design (single node only).
    MhaIntra,
    /// The paper's hierarchical multi-HCA aware design.
    MhaInter,
    /// A library surrogate's own selection logic at this point.
    Library(Library),
}

impl Family {
    /// Stable short token used by the text serialization and cache-key
    /// family strings.
    pub fn token(&self) -> String {
        match self {
            Family::Ring => "ring".into(),
            Family::RecursiveDoubling => "rd".into(),
            Family::Bruck => "bruck".into(),
            Family::DirectSpread => "direct-spread".into(),
            Family::SingleLeader => "single-leader".into(),
            Family::MultiLeader { groups } => format!("multi-leader:{groups}"),
            Family::MhaIntra => "mha-intra".into(),
            Family::MhaInter => "mha-inter".into(),
            Family::Library(Library::HpcX) => "hpcx".into(),
            Family::Library(Library::Mvapich2X) => "mvapich2x".into(),
        }
    }

    fn parse(tok: &str) -> Result<Self, String> {
        Ok(match tok {
            "ring" => Family::Ring,
            "rd" => Family::RecursiveDoubling,
            "bruck" => Family::Bruck,
            "direct-spread" => Family::DirectSpread,
            "single-leader" => Family::SingleLeader,
            "mha-intra" => Family::MhaIntra,
            "mha-inter" => Family::MhaInter,
            "hpcx" => Family::Library(Library::HpcX),
            "mvapich2x" => Family::Library(Library::Mvapich2X),
            other => {
                if let Some(g) = other.strip_prefix("multi-leader:") {
                    Family::MultiLeader {
                        groups: g.parse().map_err(|_| format!("bad groups in {other:?}"))?,
                    }
                } else {
                    return Err(format!("unknown family {other:?}"));
                }
            }
        })
    }
}

/// One point of the design space: everything [`build`] needs, nothing it
/// doesn't. See the module docs for the field groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlgoConfig {
    /// Algorithm family.
    pub family: Family,
    /// MHA-inter phase-2 algorithm (ignored by other families).
    pub inter: InterAlgo,
    /// MHA-inter phase-3 overlap (ignored by other families).
    pub overlap: bool,
    /// HCA offload policy (MHA-intra gather / MHA-inter phase 1).
    pub offload: Offload,
    /// Exchange pipeline chunk in rank-blocks (`None` = whole node
    /// blocks, the paper's design). A [`ComposePlan`] knob: chunked
    /// pieces forward through the ring piece-wise, a finer pipeline than
    /// the block-granular one.
    pub chunk: Option<u32>,
    /// Overrides [`ClusterSpec::stripe_threshold`] for this config (a
    /// software pt2pt policy, hence legitimately tunable). Applied by
    /// [`AlgoConfig::effective_spec`] to builds and pricing alike.
    pub stripe_threshold: Option<usize>,
    /// Rails to build around (degraded MHA-inter exchange). Empty = all
    /// rails up.
    pub down_rails: Vec<u8>,
}

impl Default for AlgoConfig {
    /// The paper's proposed multi-node configuration: tuned-default
    /// MHA-inter (Ring, Auto offload, overlapped distribute).
    fn default() -> Self {
        AlgoConfig::mha_inter(MhaInterConfig::default())
    }
}

impl From<crate::AllgatherAlgo> for AlgoConfig {
    fn from(a: crate::AllgatherAlgo) -> Self {
        use crate::AllgatherAlgo as A;
        match a {
            A::Ring => AlgoConfig::flat(Family::Ring),
            A::RecursiveDoubling => AlgoConfig::flat(Family::RecursiveDoubling),
            A::Bruck => AlgoConfig::flat(Family::Bruck),
            A::DirectSpread => AlgoConfig::flat(Family::DirectSpread),
            A::SingleLeader => AlgoConfig::flat(Family::SingleLeader),
            A::MultiLeader { groups } => AlgoConfig::flat(Family::MultiLeader { groups }),
            A::MhaIntra { offload } => AlgoConfig {
                family: Family::MhaIntra,
                offload,
                ..AlgoConfig::flat(Family::MhaIntra)
            },
            A::MhaInter(cfg) => AlgoConfig::mha_inter(cfg),
        }
    }
}

impl AlgoConfig {
    /// A family with every knob at its neutral default.
    pub fn flat(family: Family) -> Self {
        AlgoConfig {
            family,
            inter: InterAlgo::Ring,
            overlap: true,
            offload: Offload::Auto,
            chunk: None,
            stripe_threshold: None,
            down_rails: Vec::new(),
        }
    }

    /// The MHA-inter design with the given phase configuration.
    pub fn mha_inter(cfg: MhaInterConfig) -> Self {
        AlgoConfig {
            family: Family::MhaInter,
            inter: cfg.inter,
            overlap: cfg.overlap,
            offload: cfg.offload,
            ..AlgoConfig::flat(Family::MhaInter)
        }
    }

    /// The MHA-inter phase configuration this config encodes.
    pub fn inter_cfg(&self) -> MhaInterConfig {
        MhaInterConfig {
            inter: self.inter,
            offload: self.offload,
            overlap: self.overlap,
        }
    }

    /// The cluster spec this config builds and prices against: the input
    /// spec with the stripe-threshold override applied (borrowed when
    /// there is nothing to override, so the common path stays
    /// allocation-free). The override changes [`ClusterSpec::digest`],
    /// which correctly separates cache entries and prices.
    pub fn effective_spec<'a>(&self, spec: &'a ClusterSpec) -> Cow<'a, ClusterSpec> {
        match self.stripe_threshold {
            Some(t) if t != spec.stripe_threshold => {
                let mut s = spec.clone();
                s.stripe_threshold = t;
                Cow::Owned(s)
            }
            _ => Cow::Borrowed(spec),
        }
    }

    /// Stable FNV-1a digest over every field — the one hash path shared
    /// by campaign cache keys (`mha_bench::ConfigKey::for_algo`) and
    /// tuning-table digests. Two configs collide iff they are equal (up
    /// to the 64-bit bound); every field is framed by a type tag.
    pub fn digest(&self) -> u64 {
        let mut fp = Fingerprinter::new();
        match self.family {
            Family::Ring => fp.push_u8(0),
            Family::RecursiveDoubling => fp.push_u8(1),
            Family::Bruck => fp.push_u8(2),
            Family::DirectSpread => fp.push_u8(3),
            Family::SingleLeader => fp.push_u8(4),
            Family::MultiLeader { groups } => fp.push_u8(5).push_u32(groups),
            Family::MhaIntra => fp.push_u8(6),
            Family::MhaInter => fp.push_u8(7),
            Family::Library(Library::HpcX) => fp.push_u8(8),
            Family::Library(Library::Mvapich2X) => fp.push_u8(9),
        };
        match self.inter {
            InterAlgo::Ring => fp.push_u8(0),
            InterAlgo::RecursiveDoubling => fp.push_u8(1),
        };
        fp.push_bool(self.overlap);
        match self.offload {
            Offload::None => fp.push_u8(0),
            Offload::Fixed(d) => fp.push_u8(1).push_u32(d),
            Offload::Auto => fp.push_u8(2),
        };
        match self.chunk {
            None => fp.push_bool(false),
            Some(c) => fp.push_bool(true).push_u32(c),
        };
        match self.stripe_threshold {
            None => fp.push_bool(false),
            Some(t) => fp.push_bool(true).push_usize(t),
        };
        fp.push_usize(self.down_rails.len());
        for &r in &self.down_rails {
            fp.push_u8(r);
        }
        fp.finish().0
    }

    /// Serializes to the stable one-line `key=value` form the `.mtab`
    /// tuning table stores ([`AlgoConfig::parse_kv`] round-trips it).
    pub fn to_kv(&self) -> String {
        let offload = match self.offload {
            Offload::None => "none".to_string(),
            Offload::Auto => "auto".to_string(),
            Offload::Fixed(d) => d.to_string(),
        };
        let opt = |v: Option<String>| v.unwrap_or_else(|| "-".into());
        let down = if self.down_rails.is_empty() {
            "-".to_string()
        } else {
            self.down_rails
                .iter()
                .map(u8::to_string)
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "family={} inter={} overlap={} offload={} chunk={} stripe={} down={}",
            self.family.token(),
            match self.inter {
                InterAlgo::Ring => "ring",
                InterAlgo::RecursiveDoubling => "rd",
            },
            u8::from(self.overlap),
            offload,
            opt(self.chunk.map(|c| c.to_string())),
            opt(self.stripe_threshold.map(|t| t.to_string())),
            down,
        )
    }

    /// Parses the [`AlgoConfig::to_kv`] form. Strict: every key must be
    /// present exactly once, unknown keys are rejected.
    pub fn parse_kv(text: &str) -> Result<Self, String> {
        let mut family = None;
        let mut inter = None;
        let mut overlap = None;
        let mut offload = None;
        let mut chunk = None;
        let mut stripe = None;
        let mut down = None;
        for tok in text.split_whitespace() {
            let (k, v) = tok
                .split_once('=')
                .ok_or_else(|| format!("token {tok:?} is not key=value"))?;
            let slot_taken = |name: &str| format!("duplicate key {name:?}");
            match k {
                "family" => {
                    if family.replace(Family::parse(v)?).is_some() {
                        return Err(slot_taken(k));
                    }
                }
                "inter" => {
                    let a = match v {
                        "ring" => InterAlgo::Ring,
                        "rd" => InterAlgo::RecursiveDoubling,
                        _ => return Err(format!("unknown inter {v:?}")),
                    };
                    if inter.replace(a).is_some() {
                        return Err(slot_taken(k));
                    }
                }
                "overlap" => {
                    let b = match v {
                        "1" => true,
                        "0" => false,
                        _ => return Err(format!("overlap must be 0/1, got {v:?}")),
                    };
                    if overlap.replace(b).is_some() {
                        return Err(slot_taken(k));
                    }
                }
                "offload" => {
                    let o = match v {
                        "none" => Offload::None,
                        "auto" => Offload::Auto,
                        n => Offload::Fixed(n.parse().map_err(|_| format!("bad offload {v:?}"))?),
                    };
                    if offload.replace(o).is_some() {
                        return Err(slot_taken(k));
                    }
                }
                "chunk" => {
                    let c = match v {
                        "-" => None,
                        n => Some(n.parse().map_err(|_| format!("bad chunk {v:?}"))?),
                    };
                    if chunk.replace(c).is_some() {
                        return Err(slot_taken(k));
                    }
                }
                "stripe" => {
                    let t = match v {
                        "-" => None,
                        n => Some(n.parse().map_err(|_| format!("bad stripe {v:?}"))?),
                    };
                    if stripe.replace(t).is_some() {
                        return Err(slot_taken(k));
                    }
                }
                "down" => {
                    let d: Vec<u8> = match v {
                        "-" => Vec::new(),
                        list => list
                            .split(',')
                            .map(|r| r.parse().map_err(|_| format!("bad rail in {v:?}")))
                            .collect::<Result<_, String>>()?,
                    };
                    if down.replace(d).is_some() {
                        return Err(slot_taken(k));
                    }
                }
                other => return Err(format!("unknown key {other:?}")),
            }
        }
        Ok(AlgoConfig {
            family: family.ok_or("missing family")?,
            inter: inter.ok_or("missing inter")?,
            overlap: overlap.ok_or("missing overlap")?,
            offload: offload.ok_or("missing offload")?,
            chunk: chunk.ok_or("missing chunk")?,
            stripe_threshold: stripe.ok_or("missing stripe")?,
            down_rails: down.ok_or("missing down")?,
        })
    }

    /// Whether [`build`] can succeed for this config on `grid` (the
    /// structural preconditions of the underlying builders).
    pub fn valid_for(&self, grid: ProcGrid) -> bool {
        match self.family {
            Family::RecursiveDoubling => grid.nranks().is_power_of_two(),
            Family::SingleLeader => grid.nodes().is_power_of_two(),
            Family::MultiLeader { groups } => groups > 0 && grid.ppn().is_multiple_of(groups),
            Family::MhaIntra => grid.nodes() == 1,
            Family::MhaInter => self.inter == InterAlgo::Ring || grid.nodes().is_power_of_two(),
            // Flat ring/Bruck/direct-spread and both library surrogates
            // build on any grid (the libraries' own selection logic never
            // picks an invalid algorithm).
            Family::Ring | Family::Bruck | Family::DirectSpread | Family::Library(_) => true,
        }
    }

    /// The nearest config in the design space that is valid for `grid` —
    /// what the tuning table's nearest-neighbor fallback hands out for
    /// off-grid queries. Identity when already valid; total (the result
    /// always satisfies [`AlgoConfig::valid_for`]).
    pub fn coerce_for(&self, grid: ProcGrid) -> AlgoConfig {
        let mut c = self.clone();
        if c.family == Family::MhaIntra && grid.nodes() != 1 {
            c.family = Family::MhaInter;
        }
        if c.family == Family::MhaInter && !c.valid_for(grid) {
            c.inter = InterAlgo::Ring;
        }
        if let Family::MultiLeader { groups } = c.family {
            if groups == 0 || !grid.ppn().is_multiple_of(groups) {
                c.family = Family::MultiLeader { groups: 1 };
            }
        }
        if !c.valid_for(grid) {
            // RD / single-leader on a non-power-of-two layout: the same
            // degradation the library surrogates apply.
            c.family = Family::Ring;
        }
        debug_assert!(c.valid_for(grid));
        c
    }
}

/// Builds the schedule `cfg` names, for `grid` and per-rank contribution
/// `msg`, against `spec` (with the config's stripe override applied) —
/// the single dispatch point every other build entry point now routes
/// through.
///
/// # Errors
///
/// The underlying family's [`BuildError`] (power-of-two preconditions,
/// bad parameters); [`AlgoConfig::valid_for`] predicts success.
pub fn build(
    cfg: &AlgoConfig,
    grid: ProcGrid,
    msg: usize,
    spec: &ClusterSpec,
) -> Result<Built, BuildError> {
    let eff = cfg.effective_spec(spec);
    let spec = eff.as_ref();
    match cfg.family {
        Family::Ring => Ok(flat::build_ring(grid, msg)),
        Family::RecursiveDoubling => flat::build_recursive_doubling(grid, msg),
        Family::Bruck => Ok(flat::build_bruck(grid, msg)),
        Family::DirectSpread => Ok(flat::build_direct_spread(grid, msg)),
        Family::SingleLeader => twolevel::build_single_leader(grid, msg),
        Family::MultiLeader { groups } => twolevel::build_multi_leader(grid, msg, groups),
        Family::MhaIntra => crate::mha::build_mha_intra(grid, msg, cfg.offload, spec),
        Family::Library(lib) => {
            // The surrogate's selection never yields Family::Library, so
            // this recursion terminates after one hop.
            build(&lib.select_allgather(grid, msg).into(), grid, msg, spec)
        }
        Family::MhaInter => build_mha_inter_cfg(cfg, grid, msg, spec),
    }
}

/// The MHA-inter arm of [`build`]: the 2-level `[Exchange, Gather]`
/// composition with the config's chunk and rail knobs applied. With no
/// chunk and no down rails the schedule (name included) is byte-identical
/// to the historical `build_mha_inter`.
fn build_mha_inter_cfg(
    cfg: &AlgoConfig,
    grid: ProcGrid,
    msg: usize,
    spec: &ClusterSpec,
) -> Result<Built, BuildError> {
    let rails = RailSet::excluding(spec.rails, &cfg.down_rails);
    let d = resolve_offload(cfg.offload, spec, grid.ppn(), msg);
    let mut name = format!(
        "mha-inter-{}(d={d}",
        match cfg.inter {
            InterAlgo::Ring => "ring",
            InterAlgo::RecursiveDoubling => "rd",
        }
    );
    if !cfg.overlap {
        name.push_str(",seq");
    }
    if let Some(c) = cfg.chunk {
        name.push_str(&format!(",c={c}"));
    }
    if !cfg.down_rails.is_empty() {
        name.push_str(&format!(",rails={}/{}", rails.len(), rails.total()));
    }
    name.push(')');
    let mut ctx = Ctx::new(grid, msg, name);
    let topo = Topology::two_level(grid.nodes(), grid.ppn());
    let plan = ComposePlan::mha_inter_chunked(cfg.inter_cfg(), cfg.chunk);
    emit_plan(&mut ctx, &topo, &plan, Some(spec), Some(&rails))?;
    Ok(ctx.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::testutil::{assert_allgather_correct, op_stream};
    use crate::AllgatherAlgo;
    use mha_simnet::Simulator;

    fn thor() -> ClusterSpec {
        ClusterSpec::thor()
    }

    fn sample_configs() -> Vec<AlgoConfig> {
        let mut v = vec![
            AlgoConfig::flat(Family::Ring),
            AlgoConfig::flat(Family::RecursiveDoubling),
            AlgoConfig::flat(Family::Bruck),
            AlgoConfig::flat(Family::DirectSpread),
            AlgoConfig::flat(Family::SingleLeader),
            AlgoConfig::flat(Family::MultiLeader { groups: 2 }),
            AlgoConfig::flat(Family::Library(Library::HpcX)),
            AlgoConfig::flat(Family::Library(Library::Mvapich2X)),
            AlgoConfig::default(),
        ];
        v.push(AlgoConfig {
            inter: InterAlgo::RecursiveDoubling,
            overlap: false,
            offload: Offload::Fixed(3),
            ..AlgoConfig::default()
        });
        v.push(AlgoConfig {
            chunk: Some(2),
            stripe_threshold: Some(4096),
            down_rails: vec![1],
            ..AlgoConfig::default()
        });
        v
    }

    #[test]
    fn dispatch_reproduces_every_legacy_builder_bit_for_bit() {
        let spec = thor();
        let grid = ProcGrid::new(4, 4);
        let msg = 4096;
        // Direct free-function builds (NOT through AllgatherAlgo::build,
        // which now delegates here) vs the dispatcher.
        let legacy: Vec<(AllgatherAlgo, Built)> = vec![
            (AllgatherAlgo::Ring, crate::flat::build_ring(grid, msg)),
            (
                AllgatherAlgo::RecursiveDoubling,
                crate::flat::build_recursive_doubling(grid, msg).unwrap(),
            ),
            (AllgatherAlgo::Bruck, crate::flat::build_bruck(grid, msg)),
            (
                AllgatherAlgo::DirectSpread,
                crate::flat::build_direct_spread(grid, msg),
            ),
            (
                AllgatherAlgo::SingleLeader,
                crate::twolevel::build_single_leader(grid, msg).unwrap(),
            ),
            (
                AllgatherAlgo::MultiLeader { groups: 2 },
                crate::twolevel::build_multi_leader(grid, msg, 2).unwrap(),
            ),
        ];
        for (algo, built) in legacy {
            let via_cfg = build(&AlgoConfig::from(algo), grid, msg, &spec).unwrap();
            assert_eq!(op_stream(&built), op_stream(&via_cfg), "{}", algo.name());
            assert_eq!(
                built.sched.fingerprint().0,
                via_cfg.sched.fingerprint().0,
                "{}",
                algo.name()
            );
        }
        // MHA-inter: pin the dispatcher against the historical emission
        // path (the composer on the two-level tree) and its name format.
        let cfg = MhaInterConfig::default();
        let composed = crate::compose::build_composed(
            &Topology::two_level(grid.nodes(), grid.ppn()),
            msg,
            &ComposePlan::mha_inter(cfg),
            &spec,
        )
        .unwrap();
        let via_cfg = build(&AlgoConfig::mha_inter(cfg), grid, msg, &spec).unwrap();
        assert_eq!(op_stream(&composed), op_stream(&via_cfg));
        // Legacy name format: no chunk/rails suffixes at defaults.
        let name = via_cfg.sched.name();
        assert!(name.starts_with("mha-inter-ring(d="), "{name}");
        assert!(!name.contains(",seq") && !name.contains(",c=") && !name.contains(",rails="));
        // Library families match the surrogates' own builds.
        for lib in [Library::HpcX, Library::Mvapich2X] {
            for msg in [256usize, 16 * 1024, 256 * 1024] {
                let direct = lib.build_allgather(grid, msg, &spec).unwrap();
                let via_cfg =
                    build(&AlgoConfig::flat(Family::Library(lib)), grid, msg, &spec).unwrap();
                assert_eq!(
                    op_stream(&direct),
                    op_stream(&via_cfg),
                    "{}/{msg}",
                    lib.name()
                );
            }
        }
        // MHA-intra on a single node.
        let direct =
            crate::mha::build_mha_intra(ProcGrid::single_node(8), msg, Offload::Auto, &spec)
                .unwrap();
        let via_cfg = build(
            &AlgoConfig::flat(Family::MhaIntra),
            ProcGrid::single_node(8),
            msg,
            &spec,
        )
        .unwrap();
        assert_eq!(op_stream(&direct), op_stream(&via_cfg));
    }

    #[test]
    fn chunked_exchange_is_correct_and_distinct() {
        let spec = thor();
        let grid = ProcGrid::new(4, 4);
        for inter in [InterAlgo::Ring, InterAlgo::RecursiveDoubling] {
            for chunk in [1u32, 2, 3] {
                let cfg = AlgoConfig {
                    inter,
                    chunk: Some(chunk),
                    ..AlgoConfig::default()
                };
                let built = build(&cfg, grid, 64 * 1024, &spec).unwrap();
                assert_allgather_correct(&built);
                assert!(built.sched.name().contains(&format!("c={chunk}")));
            }
        }
        // chunk >= the node block collapses to the unchunked stream.
        let base = build(&AlgoConfig::default(), grid, 4096, &spec).unwrap();
        let wide = build(
            &AlgoConfig {
                chunk: Some(64),
                ..AlgoConfig::default()
            },
            grid,
            4096,
            &spec,
        )
        .unwrap();
        assert_eq!(op_stream(&base), op_stream(&wide));
    }

    #[test]
    fn chunked_ring_pipelines_finer_than_whole_blocks() {
        // The knob must do something: at large message sizes the
        // piece-wise forwarded ring differs from the block ring.
        let spec = thor();
        let grid = ProcGrid::new(8, 8);
        let base = build(&AlgoConfig::default(), grid, 256 * 1024, &spec).unwrap();
        let chunked = build(
            &AlgoConfig {
                chunk: Some(2),
                ..AlgoConfig::default()
            },
            grid,
            256 * 1024,
            &spec,
        )
        .unwrap();
        assert!(chunked.sched.ops().len() > base.sched.ops().len());
        let sim = Simulator::new(spec).unwrap();
        let t_base = sim.run(&base.sched).unwrap().latency_us();
        let t_chunked = sim.run(&chunked.sched).unwrap().latency_us();
        // Not asserting which wins — only that the knob changes the price.
        assert_ne!(t_base.to_bits(), t_chunked.to_bits());
    }

    #[test]
    fn stripe_override_changes_spec_and_price_only_when_different() {
        let spec = thor();
        let same = AlgoConfig {
            stripe_threshold: Some(spec.stripe_threshold),
            ..AlgoConfig::default()
        };
        assert!(matches!(same.effective_spec(&spec), Cow::Borrowed(_)));
        let low = AlgoConfig {
            stripe_threshold: Some(1024),
            ..AlgoConfig::default()
        };
        let eff = low.effective_spec(&spec);
        assert_eq!(eff.stripe_threshold, 1024);
        assert_ne!(eff.digest(), spec.digest());
    }

    #[test]
    fn degraded_config_matches_legacy_degraded_builder() {
        let spec = thor();
        let grid = ProcGrid::new(4, 2);
        for msg in [16usize, 64 * 1024] {
            let legacy = crate::mha::build_mha_inter_degraded(
                grid,
                msg,
                MhaInterConfig::default(),
                &spec,
                &[0],
            )
            .unwrap();
            let cfg = AlgoConfig {
                down_rails: vec![0],
                ..AlgoConfig::default()
            };
            let via_cfg = build(&cfg, grid, msg, &spec).unwrap();
            assert_eq!(op_stream(&legacy), op_stream(&via_cfg), "msg={msg}");
            assert_eq!(legacy.sched.name(), via_cfg.sched.name());
        }
    }

    #[test]
    fn kv_round_trips_every_sample() {
        for cfg in sample_configs() {
            let text = cfg.to_kv();
            let back = AlgoConfig::parse_kv(&text).unwrap();
            assert_eq!(cfg, back, "{text}");
            assert_eq!(cfg.digest(), back.digest());
        }
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "family=ring", // missing keys
            "family=warp inter=ring overlap=1 offload=auto chunk=- stripe=- down=-",
            "family=ring inter=ring overlap=2 offload=auto chunk=- stripe=- down=-",
            "family=ring inter=ring overlap=1 offload=auto chunk=- stripe=- down=- x=1",
            "family=ring family=ring inter=ring overlap=1 offload=auto chunk=- stripe=- down=-",
        ] {
            assert!(AlgoConfig::parse_kv(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn digest_distinguishes_every_field() {
        let base = AlgoConfig::default();
        let variants = [
            AlgoConfig::flat(Family::Ring),
            AlgoConfig {
                inter: InterAlgo::RecursiveDoubling,
                ..base.clone()
            },
            AlgoConfig {
                overlap: false,
                ..base.clone()
            },
            AlgoConfig {
                offload: Offload::Fixed(2),
                ..base.clone()
            },
            AlgoConfig {
                chunk: Some(4),
                ..base.clone()
            },
            AlgoConfig {
                stripe_threshold: Some(8192),
                ..base.clone()
            },
            AlgoConfig {
                down_rails: vec![0],
                ..base.clone()
            },
        ];
        for v in &variants {
            assert_ne!(base.digest(), v.digest(), "{v:?}");
        }
    }

    #[test]
    fn coercion_always_yields_a_buildable_config() {
        let spec = thor();
        let grids = [
            ProcGrid::new(3, 5),
            ProcGrid::new(1, 7),
            ProcGrid::new(6, 1),
            ProcGrid::new(2, 2),
        ];
        for cfg in sample_configs() {
            for grid in grids {
                let c = cfg.coerce_for(grid);
                assert!(c.valid_for(grid), "{cfg:?} -> {c:?} on {grid:?}");
                let built = build(&c, grid, 64, &spec).unwrap();
                assert_allgather_correct(&built);
            }
        }
    }
}
