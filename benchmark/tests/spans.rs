//! Span bookkeeping of the traced run.

use permsearch_benchmark::spans::{self_time_by_name, self_times_ns, Recorder, Span, SpanId};

fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        request: 0,
        name,
        start_ns,
        end_ns,
        count: 0,
    }
}

#[test]
fn self_time_subtracts_the_union_of_overlapping_children() {
    let spans = vec![
        span(0, None, "request", 0, 100),
        // Two children in flight at once cover 10..60 between them ...
        span(1, Some(0), "a", 10, 40),
        span(2, Some(0), "b", 30, 60),
        // ... one lies inside another child's interval and adds nothing ...
        span(3, Some(0), "c", 35, 38),
        // ... one sticks out of the parent and is clipped to 90..100.
        span(4, Some(0), "d", 90, 130),
        // A grandchild shortens its own parent only.
        span(5, Some(1), "a.inner", 15, 25),
    ];
    let own = self_times_ns(&spans);
    assert_eq!(own[0], 100 - 50 - 10, "parent minus the covered 60");
    assert_eq!(own[1], 30 - 10);
    assert_eq!(own[2], 30);
    assert_eq!(own[4], 40, "a leaf keeps its whole duration");
    let by_name = self_time_by_name(&spans);
    assert_eq!(by_name["request"], (40, 1));
    assert_eq!(by_name["a.inner"], (10, 1));
}

#[test]
fn ids_are_unique_across_phases_and_parents_resolve() {
    let mut rec = Recorder::new(true);
    let mut ids = Vec::new();
    for phase in ["generate", "setup", "round"] {
        let root = rec.open(phase, SpanId::NONE, 0);
        for request in 1..=3 {
            let child = rec.open("call", root, request);
            rec.close(child, 1);
        }
        rec.close(root, 3);
        ids.push(root);
    }
    let spans = rec.spans();
    assert_eq!(spans.len(), 12);
    let mut seen: Vec<u32> = spans.iter().map(|s| s.id).collect();
    seen.dedup();
    assert_eq!(seen, (0..12).collect::<Vec<u32>>(), "one id space per run");
    for s in spans.iter().filter(|s| s.name == "call") {
        let parent = &spans[s.parent.expect("calls have a parent") as usize];
        assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
        assert!(s.request >= 1);
    }
    assert_eq!(rec.to_jsonl().lines().count(), 12);
}

#[test]
fn a_disabled_recorder_records_nothing() {
    let mut rec = Recorder::new(false);
    let id = rec.open("x", SpanId::NONE, 0);
    assert_eq!(id, SpanId::NONE);
    assert_eq!(rec.close(id, 7), 0);
    assert!(rec.is_empty());
}
