from workloads import compare_csv

HEADER = "step,loss,iou"


def csv(*rows):
    return "\n".join([HEADER, *rows]) + "\n"


def test_last_digit_changes_pass_and_real_changes_fail():
    ref = csv("0,2.69465458,0.999795314", "1,2.68598742,nan")
    assert compare_csv(csv("0,2.69465459,0.999795314", "1,2.68598742,nan"), ref)[0]
    assert not compare_csv(csv("0,2.69466458,0.999795314", "1,2.68598742,nan"), ref)[0]
    assert not compare_csv(csv("0,2.69465458,0.999795314", "1,2.68598742,0.5"), ref)[0]


def test_shape_changes_fail():
    ref = csv("0,1,1", "1,1,1")
    assert not compare_csv(csv("0,1,1"), ref)[0]
    assert not compare_csv(csv("0,1,1", "2,1,1"), ref)[0]
    assert not compare_csv("step,loss\n0,1\n1,1\n", ref)[0]
