//! Golden pins for the IL lane: the BEV raster and the CNN logits that
//! every frame feeds to HSA, hashed bit for bit.
//!
//! Six scenarios (Normal, Hard and four procedural families) are driven
//! by a fixed action script; every frame's BEV image and the logits of
//! two networks (the committed trained model and an untrained one, whose
//! biases are all zero) are folded into FNV-1a hashes over their `f32`
//! bit patterns. The hashes were recorded before the rasterizer and the
//! inference kernels were optimized, so any change that alters a single
//! bit of either surface, on either kernel backend, fails here. Logits
//! are pinned per backend (AVX2 contracts multiply-adds, scalar does
//! not); the AVX2 pin is checked only on CPUs that support it.

use icoil_il::IlModel;
use icoil_nn::simd::{with_backend, KernelBackend};
use icoil_nn::{InferBuffers, Network, Tensor};
use icoil_perception::{BevConfig, BevImage, Perception};
use icoil_vehicle::ActionCodec;
use icoil_world::episode::Observation;
use icoil_world::{
    Difficulty, MapFamilyKind, ProcGen, ProcGenConfig, Scenario, ScenarioConfig, World,
};

/// Frames rendered per scenario.
const FRAMES: usize = 60;

/// Hash of every BEV image's bits (backend-independent).
const BEV_HASH: u64 = 0x5e80_0797_54aa_640e;
/// Logit hashes `[trained, untrained]` on the scalar backend.
const LOGITS_SCALAR: [u64; 2] = [0xcc9a_ea26_4820_dfab, 0x8f06_19ac_e71c_b72b];
/// Logit hashes `[trained, untrained]` on the AVX2 backend.
const LOGITS_AVX2: [u64; 2] = [0xf5eb_4ab2_cb02_d4fb, 0x4200_4992_e33c_fba2];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn f32s(&mut self, values: &[f32]) {
        for v in values {
            for byte in v.to_bits().to_le_bytes() {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

fn scenarios() -> Vec<Scenario> {
    let mut out = vec![
        ScenarioConfig::new(Difficulty::Normal, 5).build(),
        ScenarioConfig::new(Difficulty::Hard, 11).build(),
    ];
    let families = [
        MapFamilyKind::ParallelCurb,
        MapFamilyKind::AngledEchelon,
        MapFamilyKind::PillaredGarage,
        MapFamilyKind::CrowdedLot,
    ];
    for (i, family) in families.into_iter().enumerate() {
        let gen = ProcGen::new(ProcGenConfig {
            family: Some(family),
            ..ProcGenConfig::default()
        });
        out.push(gen.generate(300 + i as u64).build());
    }
    out
}

/// Every frame of every scenario, driven by a fixed action script that
/// sweeps the steering bins forward and in reverse.
fn frames() -> Vec<BevImage> {
    let codec = ActionCodec::default();
    let mut images = Vec::new();
    for scenario in scenarios() {
        let mut perception = Perception::new(BevConfig::default(), &scenario);
        let mut world = World::new(scenario);
        for frame in 0..FRAMES {
            images.push(perception.observe(&Observation::new(&world)).bev);
            let class = (frame / 6 * 5 + 3) % codec.num_classes();
            world.step(&codec.decode(class));
        }
    }
    images
}

fn networks() -> [Network; 2] {
    let json = std::fs::read_to_string("artifacts/il_model.json").expect("trained model present");
    let mut trained = IlModel::from_json(&json).expect("trained model parses");
    let mut untrained = IlModel::untrained(ActionCodec::default(), BevConfig::default(), 7);
    [
        trained.network_mut().clone(),
        untrained.network_mut().clone(),
    ]
}

/// Hashes the logits of `net` over `images` on the current backend,
/// checking on the way that micro-batches of 7 reproduce single-image
/// inference bit for bit.
fn logits_hash(net: &Network, images: &[BevImage]) -> u64 {
    let size = images[0].size;
    let shape = [BevImage::CHANNELS, size, size];
    let mut single = InferBuffers::new();
    let mut batched = InferBuffers::new();
    let mut x = Tensor::zeros(vec![1, BevImage::CHANNELS, size, size]);
    let mut out = Tensor::default();
    let mut hash = Fnv::new();
    for chunk in images.chunks(7) {
        let samples: Vec<&[f32]> = chunk.iter().map(|image| image.data.as_slice()).collect();
        net.forward_batch_into(&samples, &shape, &mut batched, &mut out);
        let classes = out.shape()[1];
        for (i, image) in chunk.iter().enumerate() {
            x.data_mut().copy_from_slice(&image.data);
            let logits = net.infer_logits(&x, &mut single).data();
            assert_eq!(logits, &out.data()[i * classes..(i + 1) * classes]);
            hash.f32s(logits);
        }
    }
    hash.0
}

fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[test]
fn il_lane_bits_are_pinned() {
    let images = frames();
    assert_eq!(images.len(), 6 * FRAMES);
    let mut bev = Fnv::new();
    for image in &images {
        bev.f32s(&image.data);
    }
    let nets = networks();
    let scalar = with_backend(KernelBackend::Scalar, || {
        nets.each_ref().map(|n| logits_hash(n, &images))
    });
    let avx2 = avx2_available().then(|| {
        with_backend(KernelBackend::Avx2, || {
            nets.each_ref().map(|n| logits_hash(n, &images))
        })
    });
    assert_eq!(bev.0, BEV_HASH, "BEV raster bits changed");
    assert_eq!(scalar, LOGITS_SCALAR, "scalar-backend logits changed");
    if let Some(avx2) = avx2 {
        assert_eq!(avx2, LOGITS_AVX2, "AVX2-backend logits changed");
    }
}
