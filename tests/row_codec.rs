//! The stored rows' byte form: pinned against the bytes the derive-based
//! codec wrote before `wb_db::Encode` replaced it, round-tripped, and fed
//! back torn and with hostile length prefixes — every one of which must
//! end in a `CodecError`, never a panic.

use std::fmt::Debug;
use wb_db::{decode, encode, Encode};
use wb_server::state::{
    AnswerRec, AttemptRec, DeviceKind, LoginRec, PeerReviewRec, RevisionRec, Role, SubmissionRec,
    UserRec,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn attempt() -> AttemptRec {
    AttemptRec {
        user: "alice".into(),
        lab: "vecadd".into(),
        dataset: Some(3),
        at_ms: 1_234_567,
        compiled: true,
        passed: false,
        summary: "2/3 datasets passed".into(),
        source: "__global__ void k(){}".into(),
        share_token: Some(0xDEAD_BEEF),
    }
}

fn login() -> LoginRec {
    LoginRec {
        user: "bob".into(),
        device: DeviceKind::Phone,
        at_ms: 99,
    }
}

/// Recorded from the parent commit's `wb_db::encode` (PR 22) on these
/// literals.
#[test]
fn bytes_match_the_previous_codec() {
    assert_eq!(
        hex(&encode(&attempt()).unwrap()),
        "0500000000000000616c6963650600000000000000766563616464010300000000000000\
         87d612000000000001001300000000000000322f33206461746173657473207061737365\
         6415000000000000005f5f676c6f62616c5f5f20766f6964206b28297b7d01efbeadde00\
         000000"
    );
    assert_eq!(
        hex(&encode(&login()).unwrap()),
        "0300000000000000626f6202000000000000006300000000000000"
    );
}

/// Round-trip `row`, then decode it cut at every length and with each of
/// its length prefixes (`prefixed`: the encodings of its length-prefixed
/// fields, located by search) overwritten.
fn exercise<T: Encode + PartialEq + Debug>(row: &T, prefixed: &[Vec<u8>]) {
    let bytes = encode(row).unwrap();
    assert_eq!(&decode::<T>(&bytes).unwrap(), row);
    for cut in 0..bytes.len() {
        assert!(decode::<T>(&bytes[..cut]).is_err(), "cut at {cut}");
    }
    for field in prefixed {
        let at = bytes
            .windows(field.len())
            .position(|w| w == field.as_slice())
            .expect("field is part of the row");
        let len = u64::from_le_bytes(field[..8].try_into().unwrap());
        for hostile in [len + 1, 1 << 40, u64::MAX] {
            let mut bad = bytes.clone();
            bad[at..at + 8].copy_from_slice(&hostile.to_le_bytes());
            assert!(
                decode::<T>(&bad).is_err(),
                "prefix at {at} overwritten with {hostile}"
            );
        }
    }
}

fn enc<T: Encode>(field: &T) -> Vec<u8> {
    encode(field).unwrap()
}

#[test]
fn every_row_round_trips_and_rejects_torn_and_hostile_bytes() {
    let r = UserRec {
        name: "carol".into(),
        pass_hash: 0x1234_5678_9abc_def0,
        role: Role::Instructor,
        email: "carol@example.edu".into(),
    };
    exercise(&r, &[enc(&r.name), enc(&r.email)]);

    let r = RevisionRec {
        user: "dave".into(),
        lab: "stencil".into(),
        at_ms: 17,
        source: "int main() { return 0; }".into(),
    };
    exercise(&r, &[enc(&r.user), enc(&r.lab), enc(&r.source)]);

    let r = attempt();
    exercise(
        &r,
        &[enc(&r.user), enc(&r.lab), enc(&r.summary), enc(&r.source)],
    );

    let r = SubmissionRec {
        user: "erin".into(),
        lab: "sgemm".into(),
        at_ms: 1,
        passed: 2,
        total: 3,
        compiled: true,
        score: 66.5,
        override_score: Some(70.0),
        source: "kernel".into(),
    };
    exercise(&r, &[enc(&r.user), enc(&r.lab), enc(&r.source)]);

    let r = AnswerRec {
        user: "frank".into(),
        lab: "scan".into(),
        answers: vec!["work-efficient".into(), "log n steps".into()],
        question_score: None,
        comment: Some("good".into()),
    };
    exercise(
        &r,
        &[
            enc(&r.user),
            enc(&r.lab),
            enc(&r.answers),
            enc(&r.answers[1]),
            enc(&"good".to_string()),
        ],
    );

    let r = PeerReviewRec {
        lab: "bfs".into(),
        reviewer: "gina".into(),
        reviewee: "hank".into(),
        review: Some("clear frontier handling".into()),
    };
    exercise(&r, &[enc(&r.lab), enc(&r.reviewer), enc(&r.reviewee)]);

    let r = login();
    exercise(&r, &[enc(&r.user)]);
}
