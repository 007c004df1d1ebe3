//! Pins the JSON snapshot format of the row-holding backends: golden
//! strings for a 3-row `FlatIndex` and a 2-list `IvfIndex` (after a
//! removal and an add, so list ids are no longer row positions) load
//! and re-serialize to the identical string. The rows stay row-major
//! under the same keys whatever layout the scan uses in memory.

use tlsfp_index::{FlatIndex, IvfIndex, Metric, Rows, VectorIndex};

const FLAT: &str =
    r#"{"dim":2,"metric":"Euclidean","data":[0.5,-1.0,2.25,0.0,-3.5,4.0],"labels":[7,0,7]}"#;

const IVF: &str = r#"{"dim":2,"metric":"Euclidean","n_probe":1,"centroids":[0.25,0.3333333432674408,9.875,10.25],"lists":[{"ids":[4],"labels":[3],"data":[0.5,0.5]},{"ids":[2,3,5],"labels":[2,2,4],"data":[10.0,10.5,9.75,10.0,10.25,9.5]}],"next_id":6}"#;

#[test]
fn flat_snapshot_round_trips_to_the_identical_string() {
    let ix: FlatIndex = serde_json::from_str(FLAT).unwrap();
    assert_eq!(serde_json::to_string(&ix).unwrap(), FLAT);
    let built = FlatIndex::from_rows(
        Metric::Euclidean,
        Rows::new(2, &[0.5, -1.0, 2.25, 0.0, -3.5, 4.0]),
        &[7, 0, 7],
    );
    assert_eq!(ix, built);
    assert_eq!(serde_json::to_string(&built).unwrap(), FLAT);
}

#[test]
fn ivf_snapshot_round_trips_to_the_identical_string() {
    let ix: IvfIndex = serde_json::from_str(IVF).unwrap();
    assert_eq!(serde_json::to_string(&ix).unwrap(), IVF);
    assert_eq!(ix.list_sizes(), [1, 3]);
    // Export gathers the lists back into insertion (id) order.
    let (labels, data) = ix.export();
    assert_eq!(labels, [2, 2, 3, 4]);
    assert_eq!(data, [10.0, 10.5, 9.75, 10.0, 0.5, 0.5, 10.25, 9.5]);
}
