//! Integration tests: the global planner against real scenario geometry.

use icoil_geom::{Aabb, Pose2, Vec2};
use icoil_planner::{plan, smooth_path, PlanError, PlannerConfig, PlanningProblem, SmoothConfig};
use icoil_vehicle::{VehicleParams, VehicleState};
use icoil_world::{Difficulty, ScenarioConfig};

/// Plans on a built scenario and checks the path against the *actual*
/// footprint collision test of the world (not just the planner's own
/// circle model).
fn plan_and_validate(seed: u64) {
    let scenario = ScenarioConfig::new(Difficulty::Easy, seed).build();
    let obstacles = scenario.static_footprints();
    let problem = PlanningProblem {
        start: scenario.start_state.pose,
        goal: scenario.map.goal_pose(),
        bounds: scenario.map.bounds(),
        obstacles: &obstacles,
        vehicle: &scenario.vehicle_params,
        safety_margin: 0.3,
    };
    let path = plan(&problem, &PlannerConfig::default())
        .unwrap_or_else(|e| panic!("seed {seed}: planning failed: {e}"));
    assert!(path.poses.len() > 10);
    // every pose footprint is inside the lot and collision-free
    for pose in &path.poses {
        let fp = VehicleState::at_rest(*pose).footprint(&scenario.vehicle_params);
        assert!(
            scenario.map.contains_footprint(&fp),
            "seed {seed}: path leaves the lot at {pose}"
        );
        for o in &obstacles {
            assert!(!o.intersects(&fp), "seed {seed}: path collides at {pose}");
        }
    }
    // the endgame reaches the bay
    let last = path.poses.last().unwrap();
    assert!(last.distance(&scenario.map.goal_pose()) < 0.5, "seed {seed}");
}

#[test]
fn planner_solves_many_scenarios() {
    for seed in [0u64, 3, 7, 12, 19, 25] {
        plan_and_validate(seed);
    }
}

#[test]
fn smoothing_keeps_scenario_paths_safe() {
    let scenario = ScenarioConfig::new(Difficulty::Easy, 7).build();
    let obstacles = scenario.static_footprints();
    let problem = PlanningProblem {
        start: scenario.start_state.pose,
        goal: scenario.map.goal_pose(),
        bounds: scenario.map.bounds(),
        obstacles: &obstacles,
        vehicle: &scenario.vehicle_params,
        safety_margin: 0.3,
    };
    let raw = plan(&problem, &PlannerConfig::default()).expect("feasible");
    let smoothed = smooth_path(&raw, &obstacles, &SmoothConfig::default());
    assert_eq!(smoothed.poses.len(), raw.poses.len());
    // smoothing must not shove the path into obstacles
    for pose in &smoothed.poses {
        let fp = VehicleState::at_rest(*pose)
            .footprint(&scenario.vehicle_params);
        for o in &obstacles {
            assert!(!o.intersects(&fp), "smoothed path collides at {pose}");
        }
    }
    // and it should not be longer than the raw path by more than a hair
    assert!(smoothed.length() <= raw.length() * 1.02);
}

#[test]
fn reeds_shepp_words_integrate_into_world_poses() {
    // RS endgames sampled into world coordinates stay in the lot for a
    // representative bay approach
    let scenario = ScenarioConfig::new(Difficulty::Easy, 3).build();
    let start = Pose2::new(22.0, 10.0, 0.0);
    let goal = scenario.map.goal_pose();
    let rs = icoil_planner::reeds_shepp::shortest_path(
        start,
        goal,
        scenario.vehicle_params.min_turning_radius(),
    );
    let samples = rs.sample(start, 0.25);
    let end = samples.last().unwrap().0;
    assert!(end.distance(&goal) < 1e-6);
    for (pose, _) in &samples {
        assert!(
            scenario.map.bounds().contains(pose.position()),
            "RS sample leaves the lot at {pose}"
        );
    }
}

/// FNV-1a over the bits of every planned pose and drive direction.
fn plan_fingerprint(path: &icoil_planner::PlannedPath) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: f64| {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (pose, dir) in path.poses.iter().zip(&path.directions) {
        eat(pose.x);
        eat(pose.y);
        eat(pose.theta);
        eat(*dir);
    }
    hash
}

/// Pins `plan()` output on a spread of scenario start states: any change
/// to the search, its heuristics or the Reeds-Shepp curves that moves a
/// single bit of a planned pose or direction fails here.
#[test]
fn golden_plans_are_pinned() {
    use icoil_world::{MapFamilyKind, ProcGen, ProcGenConfig};
    let family = |kind, seed| {
        ProcGen::new(ProcGenConfig {
            family: Some(kind),
            ..ProcGenConfig::default()
        })
        .generate(seed)
        .build()
    };
    let tier = |difficulty, seed| ScenarioConfig::new(difficulty, seed).build();
    let cases = [
        ("easy/3", tier(Difficulty::Easy, 3)),
        ("normal/5", tier(Difficulty::Normal, 5)),
        ("hard/11", tier(Difficulty::Hard, 11)),
        ("reverse_in/2", family(MapFamilyKind::ReverseIn, 2)),
        ("parallel_curb/4", family(MapFamilyKind::ParallelCurb, 4)),
        ("dead_end_stub/6", family(MapFamilyKind::DeadEndStub, 6)),
    ];
    // (pose count, FNV-1a fingerprint) per case
    let golden: [(usize, u64); 6] = [
        (121, 0xe670_3e4e_56a6_2484),
        (106, 0xe13a_b64e_a1f8_8a59),
        (104, 0xbcb2_f950_229a_0d17),
        (80, 0x74e5_6bb9_5e85_865d),
        (43, 0xa639_1fd1_90fe_3dbf),
        (89, 0x097e_813f_50c7_0c5d),
    ];
    for ((name, scenario), (len, hash)) in cases.iter().zip(golden) {
        let obstacles = scenario.static_footprints();
        let problem = PlanningProblem {
            start: scenario.start_state.pose,
            goal: scenario.map.goal_pose(),
            bounds: scenario.map.bounds(),
            obstacles: &obstacles,
            vehicle: &scenario.vehicle_params,
            safety_margin: 0.3,
        };
        let path = plan(&problem, &PlannerConfig::default())
            .unwrap_or_else(|e| panic!("{name}: planning failed: {e}"));
        assert_eq!(path.poses.len(), len, "{name}: pose count");
        assert_eq!(plan_fingerprint(&path), hash, "{name}: plan fingerprint");
    }
}

#[test]
fn non_finite_poses_are_typed_errors_not_panics() {
    use PlanError::{GoalInCollision, StartInCollision};
    // an empty lot: with no obstacle to hit, only the finiteness check
    // keeps a NaN pose from reading as free and reaching the Reeds-Shepp
    // heuristic, which has no word for it
    let vehicle = VehicleParams::default();
    let free = Pose2::new(10.0, 10.0, 0.0);
    let query = |start, goal| {
        let problem = PlanningProblem {
            start,
            goal,
            bounds: Aabb::new(Vec2::new(0.0, 0.0), Vec2::new(30.0, 20.0)),
            obstacles: &[],
            vehicle: &vehicle,
            safety_margin: 0.3,
        };
        plan(&problem, &PlannerConfig::default())
    };
    let bad = [
        Pose2::new(f64::NAN, 10.0, 0.0),
        Pose2::new(10.0, f64::INFINITY, 0.0),
        Pose2::new(10.0, 10.0, f64::NAN),
    ];
    for pose in bad {
        assert_eq!(query(pose, free), Err(StartInCollision), "start {pose:?}");
        assert_eq!(query(free, pose), Err(GoalInCollision), "goal {pose:?}");
    }
    // finite queries in the same lot still plan
    assert!(query(free, Pose2::new(20.0, 12.0, 1.0)).is_ok());
}
