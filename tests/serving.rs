//! Integration tests of the serving subsystem against the rest of the
//! workspace: differential parity of the compiled read path with the
//! reference `Grid::locate` + `KdTree::locate` + pipeline scoring, parity
//! of the `fsi::Pipeline` facade with the hand-compiled path, and a
//! concurrency test proving hot swaps are never observed torn.

use fsi::{FsiError, Method, Pipeline, PipelineSpec, TaskSpec};
use fsi_data::synth::city::{CityConfig, CityGenerator};
use fsi_data::SpatialDataset;
use fsi_geo::{Grid, Point, Rect};
use fsi_serve::{FrozenIndex, IndexHandle};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn dataset() -> SpatialDataset {
    CityGenerator::new(CityConfig {
        n_individuals: 300,
        grid_side: 16,
        seed: 23,
        ..CityConfig::default()
    })
    .unwrap()
    .generate()
    .unwrap()
}

/// Random points biased toward the hard cases: interior points, exact
/// cell-boundary coordinates and the map corners.
fn query_points(grid: &Grid, n: usize, seed: u64) -> Vec<Point> {
    let b = *grid.bounds();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut points = Vec::with_capacity(n + 8);
    for i in 0..n {
        let (x, y) = match i % 4 {
            // Mostly uniform interior points…
            0 | 1 => (rng.random::<f64>(), rng.random::<f64>()),
            // …then points pinned to exact cell boundaries on one axis…
            2 => (
                rng.random_range(0..=grid.cols()) as f64 / grid.cols() as f64,
                rng.random::<f64>(),
            ),
            // …and on both axes (cell corners, incl. the outer edges).
            _ => (
                rng.random_range(0..=grid.cols()) as f64 / grid.cols() as f64,
                rng.random_range(0..=grid.rows()) as f64 / grid.rows() as f64,
            ),
        };
        points.push(Point::new(
            b.min_x + x * b.width(),
            b.min_y + y * b.height(),
        ));
    }
    points.extend([
        Point::new(b.min_x, b.min_y),
        Point::new(b.max_x, b.min_y),
        Point::new(b.min_x, b.max_y),
        Point::new(b.max_x, b.max_y),
    ]);
    points
}

/// The tentpole differential property: for every tree-backed method and
/// a sweep of heights, `FrozenIndex::lookup` agrees with the reference
/// path (`Grid::cell_of` → `KdTree::locate`) on thousands of points, and
/// its scores agree with the pipeline's per-leaf snapshot.
#[test]
fn lookup_matches_reference_path_across_methods_and_heights() {
    let d = dataset();
    let grid = d.grid();
    let points = query_points(grid, 2000, 7);
    for method in [Method::MedianKd, Method::FairKd, Method::IterativeFairKd] {
        for height in [1, 2, 4, 6] {
            let run = Pipeline::on(&d)
                .method(method)
                .height(height)
                .run()
                .unwrap();
            let tree = run.tree.as_ref().unwrap();
            let snapshot = run.model_snapshot().unwrap();
            let index = FrozenIndex::compile(tree, grid, &snapshot).unwrap();
            for p in &points {
                let d = index
                    .lookup(p)
                    .unwrap_or_else(|| panic!("{method:?} h{height}: {p:?} out of bounds"));
                let (row, col) = grid.cell_of(p).unwrap();
                let expected = tree.locate(row, col).unwrap();
                assert_eq!(
                    d.leaf_id, expected,
                    "{method:?} h{height}: leaf mismatch at {p:?}"
                );
                assert_eq!(d.group, expected);
                assert_eq!(d.raw_score, snapshot.raw_scores()[expected]);
                assert_eq!(d.calibrated_score, snapshot.calibrated(expected));
            }
        }
    }
}

/// The facade acceptance property: `fsi::Pipeline → .freeze()` and
/// `.serve()` produce decisions bit-identical to the hand-assembled
/// `FrozenIndex::compile(tree, grid, snapshot)` path, point for point.
#[test]
fn facade_freeze_and_serve_are_bit_identical_to_compile() {
    let d = dataset();
    let grid = d.grid();
    let points = query_points(grid, 2000, 19);
    for method in [Method::MedianKd, Method::FairKd, Method::IterativeFairKd] {
        for height in [2, 4, 6] {
            let run = Pipeline::on(&d)
                .task(TaskSpec::act())
                .method(method)
                .height(height)
                .run()
                .unwrap();
            // The PR 3 path: compile the tree + snapshot by hand.
            let reference = FrozenIndex::compile(
                run.tree.as_ref().unwrap(),
                grid,
                &run.model_snapshot().unwrap(),
            )
            .unwrap();
            // The facade paths.
            let frozen = run.freeze().unwrap();
            let serving = run.serve().unwrap();
            let served = serving.handle().load();
            assert_eq!(frozen.num_leaves(), reference.num_leaves());
            for p in &points {
                let expected = reference.lookup(p);
                assert_eq!(frozen.lookup(p), expected, "{method:?} h{height} at {p:?}");
                assert_eq!(served.lookup(p), expected, "{method:?} h{height} at {p:?}");
            }
        }
    }
}

/// The cells backend (used for non-tree partitions) must agree with the
/// tree backend wherever both exist.
#[test]
fn partition_backend_agrees_with_tree_backend() {
    let d = dataset();
    let grid = d.grid();
    let run = Pipeline::on(&d)
        .method(Method::FairKd)
        .height(4)
        .run()
        .unwrap();
    let snapshot = run.model_snapshot().unwrap();
    let from_tree = FrozenIndex::compile(run.tree.as_ref().unwrap(), grid, &snapshot).unwrap();
    let from_cells = FrozenIndex::from_partition(run.partition(), grid, &snapshot).unwrap();
    assert_eq!(from_tree.backend_name(), "tree");
    assert_eq!(from_cells.backend_name(), "cells");
    for p in query_points(grid, 2000, 11) {
        assert_eq!(from_tree.lookup(&p), from_cells.lookup(&p), "at {p:?}");
    }
}

/// Batch lookups are exactly the concatenation of single lookups.
#[test]
fn batch_equals_singles_over_random_points() {
    let d = dataset();
    let run = Pipeline::on(&d)
        .method(Method::FairKd)
        .height(5)
        .run()
        .unwrap();
    let index = run.freeze().unwrap();
    let points = query_points(d.grid(), 3000, 13);
    let mut out = Vec::new();
    index.lookup_batch(&points, &mut out).unwrap();
    assert_eq!(out.len(), points.len());
    for (p, got) in points.iter().zip(&out) {
        assert_eq!(index.lookup(p).unwrap(), *got);
    }
}

/// Map-space range queries agree with `KdTree::range_query` over the
/// covered cell block.
#[test]
fn range_query_matches_kd_tree_on_random_rects() {
    let d = dataset();
    let grid = d.grid();
    let run = Pipeline::on(&d)
        .method(Method::FairKd)
        .height(5)
        .run()
        .unwrap();
    let tree = run.tree.as_ref().unwrap();
    let index = run.freeze().unwrap();
    let mut rng = StdRng::seed_from_u64(29);
    for _ in 0..500 {
        let (x0, x1) = (rng.random::<f64>(), rng.random::<f64>());
        let (y0, y1) = (rng.random::<f64>(), rng.random::<f64>());
        let query =
            Rect::new(x0.min(x1), y0.min(y1), x0.max(x1) + 1e-9, y0.max(y1) + 1e-9).unwrap();
        // Reference: locate the two clipped corners with the reference
        // grid math, then ask the KD-tree for the covered cell block.
        let clamp = |p: Point| grid.bounds().clamp(p);
        let (r0, c0) = grid
            .cell_of(&clamp(Point::new(query.min_x, query.min_y)))
            .unwrap();
        let (r1, c1) = grid
            .cell_of(&clamp(Point::new(query.max_x, query.max_y)))
            .unwrap();
        let expected = tree.range_query(&fsi_geo::CellRect::new(r0, r1 + 1, c0, c1 + 1));
        assert_eq!(index.range_query(&query), expected, "query {query:?}");
    }
}

/// Readers hammering the handle during rapid hot swaps must only ever
/// observe one of the two published snapshots, never a mixture.
#[test]
fn hot_swap_is_never_observed_torn() {
    let grid = Grid::unit(16).unwrap();
    // Two distinguishable indexes: every decision of A carries
    // (raw 0.25, calibrated 0.50) over 4 leaves; every decision of B
    // carries (raw 0.75, calibrated 0.85) over 16 leaves.
    let make = |blocks: usize, raw: f64, offset: f64| {
        let partition = fsi_geo::Partition::uniform(&grid, blocks, blocks).unwrap();
        let n = partition.num_regions();
        let snapshot = fsi_pipeline::ModelSnapshot::new(
            vec![raw; n],
            vec![offset; n],
            (0..n as u32).collect(),
        )
        .unwrap();
        FrozenIndex::from_partition(&partition, &grid, &snapshot).unwrap()
    };
    let index_a = make(2, 0.25, 0.25);
    let index_b = make(4, 0.75, 0.10);
    let handle = IndexHandle::new(index_a.clone());
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for worker in 0..4 {
            let mut reader = handle.reader();
            let stop = Arc::clone(&stop);
            readers.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(worker);
                let mut observed = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let index = reader.snapshot();
                    for _ in 0..64 {
                        let p = Point::new(rng.random::<f64>(), rng.random::<f64>());
                        let d = index.lookup(&p).unwrap();
                        let consistent_a =
                            d.raw_score == 0.25 && d.calibrated_score == 0.5 && d.leaf_id < 4;
                        let consistent_b = d.raw_score == 0.75
                            && (d.calibrated_score - 0.85).abs() < 1e-12
                            && d.leaf_id < 16;
                        assert!(
                            consistent_a || consistent_b,
                            "torn decision observed: {d:?}"
                        );
                        observed += 1;
                    }
                }
                observed
            }));
        }
        // Swap back and forth while the readers run.
        for i in 0..200 {
            let fresh = if i % 2 == 0 {
                index_b.clone()
            } else {
                index_a.clone()
            };
            handle.publish(fresh);
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        let total: usize = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert!(total > 0, "readers made no observations");
    });
    // 1 initial publish + 200 swaps.
    assert_eq!(handle.generation(), 201);
}

/// End-to-end through the facade: a background pipeline rebuild
/// hot-swaps under a live reader, which then serves the new snapshot.
#[test]
fn background_rebuild_swaps_under_a_live_reader() {
    let d = dataset();
    let run = Pipeline::on(&d)
        .method(Method::MedianKd)
        .height(2)
        .run()
        .unwrap();
    let serving = run.serve().unwrap();
    let mut reader = serving.reader();
    let before = reader.snapshot().num_leaves();
    assert_eq!(before, 4);

    let spec = PipelineSpec::new(TaskSpec::act(), Method::FairKd, 5);
    let report = std::thread::scope(|scope| {
        let rebuild = scope.spawn(|| serving.rebuild_with(&spec));
        // The reader keeps serving the old snapshot while training runs…
        let p = Point::new(0.25, 0.75);
        assert!(reader.snapshot().lookup(&p).is_some());
        rebuild.join().unwrap().unwrap()
    });
    // …and observes the new one after the swap (a fair tree may stop a
    // little short of the full 2^h leaves when a region is unsplittable).
    assert!(
        report.num_leaves > before,
        "rebuild did not refine the index"
    );
    assert_eq!(reader.snapshot().num_leaves(), report.num_leaves);
    assert_eq!(serving.handle().generation(), report.generation);
}

/// Non-tree methods serve through the cells backend end-to-end, and a
/// live deployment can hot-rebuild across backend kinds.
#[test]
fn non_tree_methods_serve_and_rebuild() {
    let d = dataset();
    let spec = PipelineSpec::new(TaskSpec::act(), Method::GridReweight, 3);
    let (index, run) = fsi_serve::build_index(&d, &spec).unwrap();
    assert_eq!(index.backend_name(), "cells");
    assert_eq!(index.num_leaves(), run.partition.num_regions());
    // A tree-compiled deployment can rebuild into a non-tree spec: the
    // swap changes the backend, never the query surface.
    let serving = Pipeline::on(&d)
        .method(Method::MedianKd)
        .height(2)
        .run()
        .unwrap()
        .serve()
        .unwrap();
    assert_eq!(serving.handle().load().backend_name(), "tree");
    let report = serving.rebuild_with(&spec).unwrap();
    assert_eq!(report.generation, 2);
    assert_eq!(serving.handle().load().backend_name(), "cells");
    assert!(serving
        .reader()
        .snapshot()
        .lookup(&Point::new(0.5, 0.5))
        .is_some());
}

/// Invalid specs surface cleanly end-to-end as the unified error type.
#[test]
fn error_paths_are_reported() {
    let d = dataset();
    let bad = PipelineSpec::new(TaskSpec::act(), Method::FairKd, 0);
    let err = fsi_serve::build_index(&d, &bad).unwrap_err();
    assert!(err.to_string().contains("height"));
    // Through the facade the same failure arrives as one FsiError.
    let serving = Pipeline::on(&d)
        .method(Method::MedianKd)
        .height(2)
        .run()
        .unwrap()
        .serve()
        .unwrap();
    let err = serving.rebuild_with(&bad).unwrap_err();
    assert!(matches!(err, FsiError::InvalidSpec(_)), "{err:?}");
    assert!(err.to_string().contains("height"));
}
